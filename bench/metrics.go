package main

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd is what a user of the kit would see.  Every workload emits
// every one of them (the driver requires it, and none may ever be 0):
// an "operation" is a 4 KiB write on ttcp_bulk, a round trip on
// rtcp_pingpong, a connection on churn_conn and a request on http_file,
// and goodput counts only payload bytes the generators verified.
// fail_ratio is not here because it is 0 on a good run; it travels as
// the result line's attempted/failed/correct and as a per-layer metric.
var endToEnd = []metricDef{
	{"setup_s", "s", lower},
	{"goodput_mbps", "Mb/s", higher},
	{"ops_per_s", "1/s", higher},
	{"lat_p50_us", "us", lower},
	{"rss_peak_mb", "MB", lower},
}

// perLayer is the per-layer table of a traced run.  Layers are this
// repository's packages; README.md says which end-to-end metric each
// one should move, and on which workload.
var perLayer = []metricDef{
	// libc: spans around the harness's own socket calls; the QuickPool.
	{"libc.sock.connect_us", "us", lower},
	{"libc.sock.accept_us", "us", lower},
	{"libc.sock.close_us", "us", lower},
	{"libc.sock.write_us", "us", lower},
	{"libc.sock.read_us", "us", lower},
	{"libc.qp_allocs_per_op", "count", lower},
	{"libc.qp_hit_ratio", "ratio", higher},
	{"libc.qp_pair_ns", "ns", lower},
	// evalrig: set-up phases and the paper's Table 1/2 ratios.
	{"evalrig.boot_ms", "ms", lower},
	{"evalrig.mountfs_ms", "ms", lower},
	{"evalrig.populate_ms", "ms", lower},
	{"evalrig.halt_ms", "ms", lower},
	{"evalrig.oskit_vs_freebsd.goodput_x", "ratio", higher},
	{"evalrig.oskit_vs_freebsd.rtt_x", "ratio", lower},
	// hw.
	{"hw.intr.cli_pair_ns", "ns", lower},
	{"hw.intr.cli_pair_deep_ns", "ns", lower},
	{"hw.goid_ns", "ns", lower},
	{"hw.intr.raise_to_handler_us", "us", lower},
	{"hw.nic.tx_frame_us", "us", lower},
	{"hw.disk.read_us", "us", lower},
	{"hw.intr.nic_per_op", "count", lower},
	{"hw.intr.disk_per_op", "count", lower},
	{"hw.intr.timer_per_s", "1/s", higher},
	{"hw.nic.rx_drops", "count", lower},
	{"hw.switch.drops", "count", lower},
	// linux_dev: the share of packets that leave the fast path.
	{"linux_dev.xmit_flattened_share", "ratio", lower},
	{"linux_dev.xmit_sg_share", "ratio", higher},
	{"linux_dev.csum_offload_share", "ratio", higher},
	{"linux_dev.kmalloc_per_op", "count", lower},
	{"linux_dev.rx_intr_per_frame", "ratio", lower},
	{"linux_dev.rx_frames_per_poll", "count", higher},
	{"linux_dev.blkio_reads_per_op", "count", lower},
	{"linux_dev.kmalloc_pair_ns", "ns", lower},
	// com.
	{"com.query_interface_ns", "ns", lower},
	// freebsd_net.
	{"freebsd_net.segs_out_per_op", "count", lower},
	{"freebsd_net.segs_in_per_op", "count", lower},
	{"freebsd_net.bytes_per_seg", "bytes", higher},
	{"freebsd_net.mbuf_allocs_per_op", "count", lower},
	{"freebsd_net.cluster_allocs_per_op", "count", lower},
	{"freebsd_net.ext_wraps_per_op", "count", lower},
	{"freebsd_net.sockbuf_hiwat_bytes", "bytes", lower},
	{"freebsd_net.acks_coalesced_per_op", "count", higher},
	{"freebsd_net.rx_frames_per_batch", "count", higher},
	{"freebsd_net.zc_share", "ratio", higher},
	{"freebsd_net.accept_overflows", "count", lower},
	{"freebsd_net.timewait_recycled_per_op", "count", lower},
	{"freebsd_net.pcbs_hiwat", "count", lower},
	{"freebsd_net.rexmt_per_kop", "count", lower},
	{"freebsd_net.dup_per_kop", "count", lower},
	{"freebsd_net.ooo_per_kop", "count", lower},
	{"freebsd_net.checksum_ns_per_kb", "ns", lower},
	{"freebsd_net.demux_lookup_ns", "ns", lower},
	{"freebsd_net.mbuf_pair_ns", "ns", lower},
	// freebsd_glue, core, lmm.
	{"freebsd_glue.malloc_per_op", "count", lower},
	{"freebsd_glue.malloc_pair_ns", "ns", lower},
	{"freebsd_glue.sleep_wakeup_us", "us", lower},
	{"core.sleeprec_handoff_us", "us", lower},
	{"lmm.allocs_per_op", "count", lower},
	{"lmm.alloc_pair_ns", "ns", lower},
	// netbsd_fs and httpd.
	{"netbsd_fs.bcache_hit_ratio", "ratio", higher},
	{"netbsd_fs.disk_reads_per_op", "count", lower},
	{"netbsd_fs.pins_per_op", "count", lower},
	{"netbsd_fs.read_hit_us_per_kb", "us", lower},
	{"netbsd_fs.read_miss_us_per_kb", "us", lower},
	{"netbsd_fs.write_us_per_kb", "us", lower},
	{"httpd.parse_request_ns", "ns", lower},
	// proc: the whole child.
	{"proc.cpu_util", "ratio", higher},
	{"proc.cpu_us_per_op", "us", lower},
	{"proc.allocs_per_op", "count", lower},
	{"proc.alloc_bytes_per_op", "bytes", lower},
	{"proc.gc_cpu_share", "ratio", lower},
	// est: probe × count ÷ operation time, the ceiling a change to that
	// layer can save when nothing contends.
	{"est.checksum_share", "ratio", lower},
	{"est.mbuf_share", "ratio", lower},
	{"est.alloc_share", "ratio", lower},
	{"est.fs_miss_share", "ratio", lower},
	// The harness itself.
	{"host.canary_ns_fast", "ns", lower},
	{"host.canary_quiet_share", "ratio", higher},
	{"trace.overhead_share", "ratio", lower},
	{"trace.spans_per_op", "count", lower},
	{"spread.unit_median", "ratio", higher},
	{"spread.unit_iqr_share", "ratio", lower},
	{"tail.lat_p99_us", "us", lower},
	{"fail_ratio", "ratio", lower},
}
