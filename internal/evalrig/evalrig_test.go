package evalrig

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"oskit/internal/com"
	"oskit/internal/libc"
)

// allocSetRows lists the statistic names the node's three allocator
// exporters publish, as "set/name".
func allocSetRows(n *Node) []string {
	var rows []string
	sets := n.Stats()
	for _, s := range sets {
		switch s.StatsName() {
		case "quickpool", "linux_dev", "bsd_malloc":
			for _, st := range s.Snapshot() {
				rows = append(rows, s.StatsName()+"/"+st.Name)
			}
		}
		s.Release()
	}
	slices.Sort(rows)
	return rows
}

// TestAllConfigsCarryTTCP proves every Table 1/2 configuration moves
// data correctly; the bench harness then measures them.
func TestAllConfigsCarryTTCP(t *testing.T) {
	for _, cfg := range Configs {
		cfg := cfg
		t.Run(string(cfg), func(t *testing.T) {
			p, err := NewPair(cfg, time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Halt()
			res, err := TTCP(p, 64, 4096, 5001)
			if err != nil {
				t.Fatal(err)
			}
			if res.Bytes != 64*4096 {
				t.Fatalf("bytes = %d", res.Bytes)
			}
			if res.SendMbps() <= 0 || res.RecvMbps() <= 0 {
				t.Fatalf("rates = %.1f / %.1f", res.SendMbps(), res.RecvMbps())
			}
		})
	}
}

func TestAllConfigsCarryRTCP(t *testing.T) {
	for _, cfg := range Configs {
		cfg := cfg
		t.Run(string(cfg), func(t *testing.T) {
			p, err := NewPair(cfg, time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Halt()
			usec, err := RTCP(p, 50, 5002)
			if err != nil {
				t.Fatal(err)
			}
			if usec <= 0 {
				t.Fatalf("rtt = %f", usec)
			}
		})
	}
}

// TestOSKitPathShape checks the mechanism behind Table 1's shape on the
// OSKit configuration: inbound packets are wrapped zero-copy, outbound
// data segments are chained (and therefore copied by the Linux glue).
func TestOSKitPathShape(t *testing.T) {
	p, err := NewPair(OSKit, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Halt()
	if _, err := TTCP(p, 256, 4096, 5003); err != nil {
		t.Fatal(err)
	}
	chained, contiguous := netStat(p.Sender, "ether.tx_chained"), netStat(p.Sender, "ether.tx_contiguous")
	if chained == 0 {
		t.Error("sender sent no chained packets")
	}
	if chained < contiguous {
		t.Errorf("data segments mostly contiguous (%d chained, %d contiguous): the send-copy story collapses",
			chained, contiguous)
	}
	if zc, copied := netStat(p.Receiver, "ether.rx_zero_copy"), netStat(p.Receiver, "ether.rx_copied"); zc == 0 || copied != 0 {
		t.Errorf("receive path not zero-copy: %d wrapped, %d copied", zc, copied)
	}
}

// netStat reads one row of a node's freebsd_net statistics set.
func netStat(n *Node, name string) int64 {
	v, _ := n.Stat("freebsd_net", name)
	return v
}

// TestPathShapeMatrix locks down the §4.7.3 decision tree for both OSKit
// configurations, table-driven: the default (stock) configuration must
// keep paying the Table-1 flatten copy for its chained sends, and the
// opt-in fast path must eliminate it — every chained send leaving via
// the scatter-gather branch instead, with the QuickPool service visibly
// feeding the packet path.  Either row regressing silently would
// invalidate the E9/E11 story.
func TestPathShapeMatrix(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		port uint16
	}{
		{"default", Options{}, 5005},
		{"fastpath", Options{FastPath: true}, 5006},
		{"fastpath-4cpu", Options{FastPath: true, CPUs: 4}, 5007},
		// The fourth cell: the stock path shape (flatten copies, donor
		// ISR, no gather, no polled receive) holds on 4-CPU machines,
		// where the donor ISR keeps its one line.
		{"stock-4cpu", Options{CPUs: 4}, 5008},
	}
	// Every row serves the same seeded files, so every row's HTTP body
	// checksum is the first row's: the wire image does not depend on the
	// path a segment leaves by.
	var wantSum uint32
	wantFrom := ""
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewPairOpts(OSKit, time.Millisecond, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Halt()
			if _, err := TTCP(p, 256, 4096, tc.port); err != nil {
				t.Fatal(err)
			}

			// Invariants shared by both rows: the stack still chains
			// its data segments and the receive side stays zero-copy —
			// the fast path changes how chains *leave*, not whether
			// they exist.
			chained, contiguous := netStat(p.Sender, "ether.tx_chained"), netStat(p.Sender, "ether.tx_contiguous")
			if chained == 0 || chained < contiguous {
				t.Errorf("data segments not predominantly chained (%d chained, %d contiguous)",
					chained, contiguous)
			}
			if zc, copied := netStat(p.Receiver, "ether.rx_zero_copy"), netStat(p.Receiver, "ether.rx_copied"); zc == 0 || copied != 0 {
				t.Errorf("receive path not zero-copy: %d wrapped, %d copied", zc, copied)
			}

			// Delayed ACKs, in segments: a bulk receiver ACKs at most
			// every second data segment, and a 1-byte round trip is the
			// request and the echo, each carrying the other's ACK — the
			// rest is the handshake, the close and the warm-up rounds.
			rx, tx := netStat(p.Receiver, "tcp.segs_out"), netStat(p.Sender, "tcp.segs_out")
			if rx >= tx {
				t.Errorf("TTCP receiver sent %d segments for the sender's %d: ACKs are not delayed", rx, tx)
			}
			const rounds = 200
			if _, err := RTCP(p, rounds, tc.port+200); err != nil {
				t.Fatal(err)
			}
			moved := netStat(p.Receiver, "tcp.segs_out") + netStat(p.Sender, "tcp.segs_out") - rx - tx
			if moved > 2*rounds+20 {
				t.Errorf("%d RTCP rounds sent %d segments, want at most %d", rounds, moved, 2*rounds+20)
			}
			t.Logf("TTCP segments out: receiver %d, sender %d; %d RTCP rounds: %d", rx, tx, rounds, moved)

			// Both nodes sit on the pair's two-port switch, which learned
			// them and never overflowed an egress queue.
			for _, n := range []*Node{p.Sender, p.Receiver} {
				if p.Switch.PortOf(n.NIC().Mac) < 0 {
					t.Errorf("%s not learned on the pair's switch", n.Machine.Name)
				}
			}
			if d := p.Switch.Stats().Drops; d != 0 {
				t.Errorf("pair switch dropped %d frames on egress", d)
			}

			stat := func(set, name string) int64 {
				v, _ := p.Sender.Stat(set, name)
				return v
			}
			rstat := func(set, name string) int64 {
				v, _ := p.Receiver.Stat(set, name)
				return v
			}
			sg := stat("linux_dev", "xmit.sg")
			flattened := stat("linux_dev", "xmit.flattened")
			if tc.opts.FastPath {
				if sg == 0 {
					t.Error("fastpath: no scatter-gather sends recorded")
				}
				if flattened != 0 {
					t.Errorf("fastpath: %d sends still flatten-copied", flattened)
				}
				if g := p.Sender.NIC().TxGathers(); g == 0 {
					t.Error("fastpath: NIC gather engine never saw a scattered frame")
				}
				if a := stat("quickpool", "qp.allocs"); a == 0 {
					t.Error("fastpath: QuickPool served no packet allocations")
				}
				if h := stat("quickpool", "qp.hits"); h == 0 {
					t.Error("fastpath: QuickPool free lists never hit (pool not cycling)")
				}
				if f, a := stat("quickpool", "qp.frees"), stat("quickpool", "qp.allocs"); f > a {
					t.Errorf("quickpool imbalance: %d frees > %d allocs", f, a)
				}
				// E12 receive side: the receiver's inbound frames left its
				// ring through the budgeted poll loop with interrupts
				// mitigated, and the stack ingested them in batches.
				if v := rstat("linux_dev", "rx.batched-frames"); v == 0 {
					t.Error("fastpath: no frames drained through the receive poll loop")
				}
				if v := rstat("linux_dev", "rx.intr-suppressed"); v == 0 {
					t.Error("fastpath: interrupt mitigation never suppressed an edge")
				}
				if v := rstat("freebsd_net", "ether.rx_batches"); v == 0 {
					t.Error("fastpath: the stack saw no batched deliveries")
				}
			} else {
				if flattened == 0 {
					t.Error("default: chained sends recorded no flatten copies")
				}
				if sg != 0 {
					t.Errorf("default: %d scatter-gather sends on the stock configuration", sg)
				}
				if g := p.Sender.NIC().TxGathers(); g != 0 {
					t.Errorf("default: NIC saw %d scattered frames", g)
				}
				if _, ok := p.Sender.Stat("quickpool", "qp.allocs"); ok {
					t.Error("default: quickpool stats set registered without the option")
				}
				// E12 receive side, pinned off: stock nodes keep the
				// per-frame donor ISR — no batched drains, no suppressed
				// interrupts, no batched stack deliveries, on either node.
				for _, n := range []*Node{p.Sender, p.Receiver} {
					if v := n.NIC().RxBatched(); v != 0 {
						t.Errorf("default: %s NIC drained %d frames via RxPopBatchOn", n.Machine.Name, v)
					}
					if _, suppr, _ := n.NIC().RxIntrCounters(); suppr != 0 {
						t.Errorf("default: %s NIC suppressed %d receive interrupts", n.Machine.Name, suppr)
					}
				}
				if v := rstat("linux_dev", "rx.batched-frames"); v != 0 {
					t.Errorf("default: %d frames counted through the poll loop", v)
				}
				if v := rstat("linux_dev", "rx.intr-suppressed"); v != 0 {
					t.Errorf("default: %d suppressed interrupts on the stock configuration", v)
				}
				if v := rstat("freebsd_net", "ether.rx_batches"); v != 0 {
					t.Errorf("default: %d batched deliveries on the stock configuration", v)
				}
			}

			// One allocator path at every width: a multi-CPU row's
			// allocator exporters publish exactly the rows the same
			// configuration publishes on one CPU — no per-CPU layer
			// registers anything.
			if tc.opts.CPUs > 1 {
				one := tc.opts
				one.CPUs = 0
				ref, err := NewPairOpts(OSKit, time.Millisecond, one)
				if err != nil {
					t.Fatal(err)
				}
				want := allocSetRows(ref.Sender)
				ref.Halt()
				for _, n := range []*Node{p.Sender, p.Receiver} {
					if got := allocSetRows(n); !slices.Equal(got, want) {
						t.Errorf("%s: allocator rows at %d CPUs = %v, want the 1-CPU rows %v",
							n.Machine.Name, tc.opts.CPUs, got, want)
					}
				}
			}

			// E15 file-serving shape, same decision tree: boot a
			// disk-carrying cluster in the row's configuration and push
			// the HTTP workload through libc.Sendfile.  The fast path
			// must move every body byte as pinned buffer-cache pages;
			// the default path must never negotiate the seam.  A multi-CPU
			// row serves from unserialized 4-CPU nodes: handler threads
			// sleep in the donor IDE driver under the SMP driver glue,
			// where cli no longer orders them against the completion
			// handler, so the -race tier checks that hand-off too.
			c, err := NewCluster(OSKit, 2, time.Millisecond, Options{
				FastPath: tc.opts.FastPath, CPUs: tc.opts.CPUs, DiskSectors: 16384,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Halt()
			// Three 64 KiB files overflow the 64 KiB buffer cache, so
			// every GET reads its body from the disk.
			opts := HTTPOptions{
				Requests: 24, Workers: 2, Files: 3, FileBytes: 64 << 10,
				Seed: 7, Port: tc.port + 100, Probes: true,
			}
			if err := PopulateHTTP(c.Server(), opts); err != nil {
				t.Fatal(err)
			}
			cstat := func(set, name string) int64 {
				v, _ := c.Server().Stat(set, name)
				return v
			}
			reads0 := cstat("linux_dev", "blkio.reads")
			res, err := HTTPGet(c, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 {
				t.Fatalf("HTTP workload failed %d of %d requests: %v", res.Failed, res.Failed+res.Requests, res.Errors)
			}
			// The buffer cache reads each contiguous run of a file in one
			// IDE request: a 64 KiB body is 8 sendfile windows of 8
			// blocks plus the indirect block — about 10 requests, not 66.
			gets := int64(res.BytesBody) / int64(opts.FileBytes)
			if reads := cstat("linux_dev", "blkio.reads") - reads0; gets == 0 || reads > 12*gets {
				t.Errorf("%d IDE reads for %d GETs of 64 KiB, want at most 12 each", reads, gets)
			}
			if wantFrom == "" {
				wantSum, wantFrom = res.CheckSum, tc.name
			} else if res.CheckSum != wantSum {
				t.Errorf("HTTP checksum %08x, want %08x (row %s)", res.CheckSum, wantSum, wantFrom)
			}
			// The generator verifies every segment the server summed in
			// tcp_output — on the fast path, over sendfile's page chains
			// (bsdnet's TestChainChecksumEquivalenceProperty pins odd
			// link lengths, which this workload does not produce).
			for _, row := range []string{"tcp.drop_bad_csum", "ip.bad_csum"} {
				if v := netStat(c.Generators()[0], row); v != 0 {
					t.Errorf("generator %s = %d", row, v)
				}
			}
			if tc.opts.FastPath {
				if v := cstat("freebsd_net", "sendfile.pages_mapped"); v == 0 {
					t.Error("fastpath: sendfile mapped no buffer-cache pages")
				}
				if v := cstat("freebsd_net", "sendfile.bytes_copied"); v != 0 {
					t.Errorf("fastpath: sendfile copied %d payload bytes", v)
				}
				if v := cstat("netbsd_fs", "bcache.pinned"); v != 0 {
					t.Errorf("fastpath: %d buffer-cache pages still pinned after the run", v)
				}
			} else {
				if v := cstat("freebsd_net", "sendfile.pages_mapped"); v != 0 {
					t.Errorf("default: %d pages mapped on the stock configuration", v)
				}
				if v := cstat("freebsd_net", "sendfile.bytes_copied"); v == 0 {
					t.Error("default: sendfile copy path moved no bytes (did the seam engage silently?)")
				}
			}
		})
	}
}

// TestFastPathIsAssembled pins that the fast path is a fact of the
// assembly, not a switch: a QuickPool registered as the allocator
// service only after the driver glue and the stack were built engages
// nothing.  The pool serves no allocation across a whole HTTP run, and
// every fast-path row — gather transmit, polled receive, zero-copy
// sendfile — stays at zero.
func TestFastPathIsAssembled(t *testing.T) {
	c, err := NewCluster(OSKit, 2, time.Millisecond, Options{DiskSectors: 16384})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Halt()
	pools := make([]*libc.QuickPool, len(c.Nodes))
	for i, n := range c.Nodes {
		pools[i] = libc.NewQuickPoolService(n.C)
	}
	res, err := HTTPGet(c, HTTPOptions{
		Requests: 12, Workers: 2, Files: 2, FileBytes: 20000, Seed: 3, Port: 5090,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("HTTP workload failed %d of %d requests: %v", res.Failed, res.Failed+res.Requests, res.Errors)
	}
	for i, n := range c.Nodes {
		if a := pools[i].StatsSet().Counter("qp.allocs").Load(); a != 0 {
			t.Errorf("%s: a pool registered after assembly served %d allocations", n.Machine.Name, a)
		}
		for _, row := range []string{"xmit.sg", "rx.polls"} {
			if v, _ := n.Stat("linux_dev", row); v != 0 {
				t.Errorf("%s: linux_dev %s = %d after a late registration", n.Machine.Name, row, v)
			}
		}
	}
	if v := netStat(c.Server(), "sendfile.pages_mapped"); v != 0 {
		t.Errorf("server mapped %d sendfile pages after a late registration", v)
	}
}

// TestFreeBSDNativePathShape: the all-BSD configuration never crosses a
// buffer-representation boundary.
func TestFreeBSDNativePathShape(t *testing.T) {
	p, err := NewPair(FreeBSD, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Halt()
	if _, err := TTCP(p, 64, 4096, 5004); err != nil {
		t.Fatal(err)
	}
	// The COM receive sink is never involved: no zero-copy/copied
	// accounting happens on the native path.
	if zc, copied := netStat(p.Receiver, "ether.rx_zero_copy"), netStat(p.Receiver, "ether.rx_copied"); zc != 0 || copied != 0 {
		t.Errorf("native path went through the COM sink: %d wrapped, %d copied", zc, copied)
	}
	if netStat(p.Receiver, "tcp.segs_in") == 0 {
		t.Error("no TCP input recorded")
	}
}

// TestPairHaltUnmounts: Pair.Halt runs the same per-node teardown as
// Cluster.Halt, so a file system mounted on a pair's node is unmounted
// (root reference released, mount synced and closed) before the machine
// powers off.  Under the oskitrefdebug build an over-release anywhere in
// that teardown panics here.
func TestPairHaltUnmounts(t *testing.T) {
	p, err := NewPairOpts(OSKit, time.Millisecond, Options{DiskSectors: 8192})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Halt()
	if err := p.Receiver.MountFS(); err != nil {
		t.Fatal(err)
	}
	fs := p.Receiver.FS
	p.Halt()
	if p.Receiver.FS != nil || p.Receiver.FSRoot != nil {
		t.Fatal("Pair.Halt left the receiver's file system mounted")
	}
	if _, err := fs.GetRoot(); err != com.ErrBadF {
		t.Fatalf("GetRoot after Halt = %v, want ErrBadF (the mount was never closed)", err)
	}
}

// TestRxPollNeedsNoClock: the polled receive path loses no interrupt
// edge, so it needs no timer to recover one.  A fast-path OSKit pair
// booted with tick 0 never fires a callout; RTCP and TTCP must still
// finish, on one CPU and on two (two receive rings, two poll loops).
func TestRxPollNeedsNoClock(t *testing.T) {
	for _, cpus := range []int{1, 2} {
		t.Run(fmt.Sprintf("cpus=%d", cpus), func(t *testing.T) {
			p, err := NewPairOpts(OSKit, 0, Options{FastPath: true, CPUs: cpus})
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				if _, err := RTCP(p, 2000, 5010); err != nil {
					done <- err
					return
				}
				_, err := TTCP(p, 512, 4096, 5011)
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(30 * time.Second):
				// The rig is wedged; halting it could wedge too.
				t.Fatal("a frame stranded in a receive ring: RTCP+TTCP did not finish with the clock stopped")
			}
			defer p.Halt()
			for _, n := range []*Node{p.Sender, p.Receiver} {
				if v, _ := n.Stat("linux_dev", "rx.polls"); v == 0 {
					t.Errorf("%s: rx.polls = 0, the polled receive path never ran", n.Machine.Name)
				}
			}
		})
	}
}
