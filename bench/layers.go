package main

import (
	"sort"
	"time"
)

// layerMetrics assembles the per-layer table of a traced run from the
// four things the harness can see from outside: spans around its own
// calls, deltas of the kit's exported counters over the timed phase,
// the probes, and the process's own ledger.
func layerMetrics(res *childResult, wl *workloadDef, lanes []*lane, c0, c1 counters,
	elapsed time.Duration, pooled []float64, probes map[string]float64) {
	m := res.Metrics
	traced, plain := lanes[0], lanes[1]

	// The product's operations and time: both lanes over the instance.
	ops := float64(traced.ops + plain.ops)
	bytesPerOp := 0.0
	if ops > 0 {
		bytesPerOp = float64(traced.bytes+plain.bytes) / ops
	}
	delta := func(key string) float64 { return float64(c1[key] - c0[key]) }
	perOp := func(key string) float64 { return ratio(delta(key), ops) }

	// Spans.
	for _, s := range []struct{ metric, span string }{
		{"libc.sock.connect_us", "libc.sock.connect"},
		{"libc.sock.accept_us", "libc.sock.accept"},
		{"libc.sock.close_us", "libc.sock.close"},
		{"libc.sock.write_us", "libc.sock.write"},
		{"libc.sock.read_us", "libc.sock.read"},
	} {
		m[s.metric] = tr.medianUs(s.span)
	}
	for _, s := range []struct{ metric, span string }{
		{"evalrig.boot_ms", "evalrig.boot"},
		{"evalrig.mountfs_ms", "evalrig.mountfs"},
		{"evalrig.populate_ms", "evalrig.populate"},
		{"evalrig.halt_ms", "evalrig.halt"},
	} {
		m[s.metric] = tr.medianUs(s.span) / 1e3
	}
	m["trace.spans_per_op"] = ratio(float64(len(tr.spans)+tr.dropped), float64(traced.ops))

	// Tracing overhead on the workload's own metric, positive when the
	// traced lane is the slower one.
	_, hb := plain.unitValues(wl.primary)
	t, p := traced.value(wl.primary), plain.value(wl.primary)
	if hb {
		m["trace.overhead_share"] = ratio(p-t, p)
	} else {
		m["trace.overhead_share"] = ratio(t-p, p)
	}

	// The reference lap: the paper's Table 1 and Table 2 ratios.
	if len(lanes) > 2 {
		ref := lanes[2]
		switch wl.primary {
		case "goodput_mbps":
			m["evalrig.oskit_vs_freebsd.goodput_x"] = ratio(plain.value("goodput_mbps"), ref.value("goodput_mbps"))
		case "lat_p50_us":
			m["evalrig.oskit_vs_freebsd.rtt_x"] = ratio(plain.value("lat_p50_us"), ref.value("lat_p50_us"))
		}
	}

	// Counters.
	m["libc.qp_allocs_per_op"] = perOp("quickpool:qp.allocs")
	m["libc.qp_hit_ratio"] = ratio(delta("quickpool:qp.hits"), delta("quickpool:qp.allocs"))
	m["hw.intr.nic_per_op"] = perOp("hw:intr.nic")
	m["hw.intr.disk_per_op"] = perOp("hw:intr.disk")
	m["hw.intr.timer_per_s"] = ratio(delta("hw:intr.timer"), elapsed.Seconds())
	m["hw.nic.rx_drops"] = delta("hw:nic.rx_drops")
	m["hw.switch.drops"] = delta("hw:switch.drops")

	xmit := delta("linux_dev:xmit.native") + delta("linux_dev:xmit.mapped") + delta("linux_dev:xmit.sg") + delta("linux_dev:xmit.flattened")
	m["linux_dev.xmit_flattened_share"] = ratio(delta("linux_dev:xmit.flattened"), xmit)
	m["linux_dev.xmit_sg_share"] = ratio(delta("linux_dev:xmit.sg"), xmit)
	m["linux_dev.csum_offload_share"] = ratio(delta("linux_dev:xmit.csum_offloaded"), xmit)
	m["linux_dev.kmalloc_per_op"] = perOp("linux_dev:kmalloc.allocs")
	m["linux_dev.rx_intr_per_frame"] = ratio(delta("hw:intr.nic"), delta("hw:nic.rx"))
	m["linux_dev.rx_frames_per_poll"] = ratio(delta("linux_dev:rx.batched-frames"), delta("linux_dev:rx.polls"))
	m["linux_dev.blkio_reads_per_op"] = perOp("linux_dev:blkio.reads")

	m["freebsd_net.segs_out_per_op"] = perOp("freebsd_net:tcp.segs_out")
	m["freebsd_net.segs_in_per_op"] = perOp("freebsd_net:tcp.segs_in")
	m["freebsd_net.bytes_per_seg"] = ratio(delta("freebsd_net:tcp.rx_seg_bytes.sum"), delta("freebsd_net:tcp.rx_seg_bytes.count"))
	m["freebsd_net.mbuf_allocs_per_op"] = perOp("freebsd_net:mbuf.allocs")
	m["freebsd_net.cluster_allocs_per_op"] = perOp("freebsd_net:mbuf.cluster_allocs")
	m["freebsd_net.ext_wraps_per_op"] = perOp("freebsd_net:mbuf.ext_wraps")
	m["freebsd_net.sockbuf_hiwat_bytes"] = float64(c1["freebsd_net:sockbuf.occupancy.hiwat"])
	m["freebsd_net.acks_coalesced_per_op"] = perOp("freebsd_net:tcp.rx_acks_coalesced")
	m["freebsd_net.rx_frames_per_batch"] = ratio(delta("freebsd_net:ether.rx_batch_frames"), delta("freebsd_net:ether.rx_batches"))
	m["freebsd_net.zc_share"] = ratio(delta("freebsd_net:sendfile.zc_bytes"),
		delta("freebsd_net:sendfile.zc_bytes")+delta("freebsd_net:sendfile.bytes_copied"))
	m["freebsd_net.accept_overflows"] = delta("freebsd_net:tcp.accept_overflows")
	m["freebsd_net.timewait_recycled_per_op"] = perOp("freebsd_net:tcp.timewait_recycled")
	m["freebsd_net.pcbs_hiwat"] = float64(c1["freebsd_net:tcp.pcbs.hiwat"])
	m["freebsd_net.rexmt_per_kop"] = 1e3 * perOp("freebsd_net:tcp.rexmt")
	m["freebsd_net.dup_per_kop"] = 1e3 * perOp("freebsd_net:tcp.drop_dup")
	m["freebsd_net.ooo_per_kop"] = 1e3 * perOp("freebsd_net:tcp.ooo_segs")
	m["freebsd_glue.malloc_per_op"] = perOp("bsd_malloc:malloc.allocs")
	m["lmm.allocs_per_op"] = perOp("kern:lmm.allocs")

	lookups := delta("netbsd_fs:bcache.hits") + delta("netbsd_fs:bcache.misses")
	m["netbsd_fs.bcache_hit_ratio"] = ratio(delta("netbsd_fs:bcache.hits"), lookups)
	m["netbsd_fs.disk_reads_per_op"] = perOp("netbsd_fs:bcache.disk_reads")
	m["netbsd_fs.pins_per_op"] = perOp("netbsd_fs:bcache.pins")

	// Probes.
	for k, v := range probes {
		m[k] = v
	}

	// The process.
	wall := traced.wall + plain.wall
	cpu := traced.cpu + plain.cpu
	m["proc.cpu_util"] = ratio(cpu.Seconds(), wall.Seconds())
	m["proc.cpu_us_per_op"] = ratio(cpu.Seconds()*1e6, ops)
	m["proc.allocs_per_op"] = ratio(float64(traced.mallocs+plain.mallocs), ops)
	m["proc.alloc_bytes_per_op"] = ratio(float64(traced.mallocBytes+plain.mallocBytes), ops)
	m["proc.gc_cpu_share"] = ratio(traced.gcCPU+plain.gcCPU, cpu.Seconds())

	// The outside-in ledger: what a layer costs per operation by its
	// probe and its count, as a share of the operation's time.
	opNs := ratio(1e9, plain.value("ops_per_s"))
	share := func(ns float64) float64 { return ratio(ns, opNs) }
	// Every payload byte is verified in software by its receiver, and
	// summed in software by its sender unless the NIC took the sum.
	csumKB := bytesPerOp / 1024 * (2 - m["linux_dev.csum_offload_share"])
	m["est.checksum_share"] = share(m["freebsd_net.checksum_ns_per_kb"] * csumKB)
	m["est.mbuf_share"] = share(m["freebsd_net.mbuf_pair_ns"] * m["freebsd_net.mbuf_allocs_per_op"])
	m["est.alloc_share"] = share(m["linux_dev.kmalloc_pair_ns"]*m["linux_dev.kmalloc_per_op"] +
		m["lmm.alloc_pair_ns"]*m["lmm.allocs_per_op"] +
		m["freebsd_glue.malloc_pair_ns"]*m["freebsd_glue.malloc_per_op"] +
		m["libc.qp_pair_ns"]*m["libc.qp_allocs_per_op"])
	missKB := 0.0
	if lookups > 0 {
		missKB = bytesPerOp / 1024 * (1 - m["netbsd_fs.bcache_hit_ratio"])
	}
	m["est.fs_miss_share"] = share(m["netbsd_fs.read_miss_us_per_kb"] * 1e3 * missKB)

	sort.Float64s(pooled)
	m["tail.lat_p99_us"] = percentile(pooled, 0.99)
	m["fail_ratio"] = ratio(float64(res.Failed), float64(res.Attempted))

	// A traced run emits every per-layer metric; what this workload does
	// not touch reads 0.
	for _, d := range perLayer {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = 0
		}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
