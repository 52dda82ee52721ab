package evalrig

// Per-operation count pins on the stock OSKit path: what one operation
// of a bench workload's shape costs in mbufs, BSD mallocs, donor
// kmallocs and transmit conversions, summed over both nodes.  These are
// counts, not times.  A stack that builds its segments the way the donor
// does puts each control or small segment in one mbuf, which the Linux
// glue maps instead of flattening, and takes its mbufs and clusters off
// its own free lists, so after warm-up the BSD malloc is asked only when
// a list must grow past its high-water mark, which the socket buffers
// bound: a handful of calls, never one per operation.

import (
	"testing"
)

// opCounts sums counters over both nodes of a pair.
type opCounts map[string]int64

var countRows = [][2]string{
	{"freebsd_net", "mbuf.allocs"},
	{"freebsd_net", "tcp.segs_out"},
	{"freebsd_net", "tcp.delack_timeouts"},
	{"bsd_malloc", "malloc.allocs"},
	{"linux_dev", "kmalloc.allocs"},
	{"linux_dev", "xmit.mapped"},
	{"linux_dev", "xmit.flattened"},
}

func readCounts(t *testing.T, nodes ...*Node) opCounts {
	t.Helper()
	c := opCounts{}
	for _, n := range nodes {
		for _, r := range countRows {
			v, ok := n.Stat(r[0], r[1])
			if !ok {
				t.Fatalf("%s: %s/%s not exported", n.Machine.Name, r[0], r[1])
			}
			c[r[1]] += v
		}
	}
	return c
}

func (c opCounts) since(before opCounts) opCounts {
	d := opCounts{}
	for k, v := range c {
		d[k] = v - before[k]
	}
	return d
}

// TestRTCPRoundTripCounts: a 1-byte round trip is two segments, each
// carrying its payload and the ACK in one mapped mbuf.
func TestRTCPRoundTripCounts(t *testing.T) {
	p, sfd, rfd := connectedPair(t, 7311)
	var b [1]byte
	rt := func() {
		if err := writeAll(p.Sender, sfd, b[:]); err != nil {
			t.Fatal(err)
		}
		if err := readFull(p.Receiver, rfd, b[:]); err != nil {
			t.Fatal(err)
		}
		if err := writeAll(p.Receiver, rfd, b[:]); err != nil {
			t.Fatal(err)
		}
		if err := readFull(p.Sender, sfd, b[:]); err != nil {
			t.Fatal(err)
		}
	}
	for range 50 {
		rt()
	}
	const rounds = 200
	before := readCounts(t, p.Sender, p.Receiver)
	for range rounds {
		rt()
	}
	d := readCounts(t, p.Sender, p.Receiver).since(before)
	t.Logf("per %d round trips: %v", rounds, d)

	// A delayed ACK the slow sweep sends is one more segment, one more
	// mbuf on each side and one more received buffer.
	sweeps := d["tcp.delack_timeouts"]
	if got := d["tcp.segs_out"]; got != 2*rounds+sweeps {
		t.Fatalf("%d segments for %d round trips (%d sweep ACKs), want 2 a round trip", got, rounds, sweeps)
	}
	if got, want := d["mbuf.allocs"], 8*rounds+2*sweeps; got > want {
		t.Errorf("mbuf.allocs = %d, want at most 8 a round trip (%d)", got, want)
	}
	// The driver allocates one buffer per frame it pops and none for an
	// empty ring, and every segment is mapped, not flattened: one
	// kmalloc per segment received.
	if got, want := d["kmalloc.allocs"], 2*rounds+sweeps; got != want {
		t.Errorf("kmalloc.allocs = %d, want exactly 2 a round trip plus 1 a sweep ACK (%d)", got, want)
	}
	// Only a sweep's ACK, sent while a segment is still live, can take
	// a node one buffer past its warm-up high-water mark.
	if got := d["malloc.allocs"]; got > sweeps {
		t.Errorf("malloc.allocs = %d after warm-up (%d sweep ACKs), want 0: the free lists missed", got, sweeps)
	}
	if got := d["xmit.flattened"]; got != 0 {
		t.Errorf("xmit.flattened = %d, want 0: a one-byte segment is one contiguous mbuf", got)
	}
	if got := d["xmit.mapped"]; got != d["tcp.segs_out"] {
		t.Errorf("xmit.mapped = %d, want every one of the %d segments", got, d["tcp.segs_out"])
	}
}

// TestTTCPWriteCounts: a 4 KiB write costs the BSD malloc nothing after
// warm-up — the lists grow at most to the send buffer's 16 KB of
// clusters and their headers, however many writes follow — and every
// pure ACK the receiver sends is mapped; the data segments are header
// mbuf plus clusters, which the stock glue flattens (Table 1's send
// copy).
func TestTTCPWriteCounts(t *testing.T) {
	p, sfd, rfd := connectedPair(t, 7312)
	out, in := make([]byte, 4096), make([]byte, 4096)
	step := func() {
		if err := writeAll(p.Sender, sfd, out); err != nil {
			t.Fatal(err)
		}
		if err := readFull(p.Receiver, rfd, in); err != nil {
			t.Fatal(err)
		}
	}
	for range 50 {
		step()
	}
	const writes = 200
	sb, rb := readCounts(t, p.Sender), readCounts(t, p.Receiver)
	for range writes {
		step()
	}
	sd, rd := readCounts(t, p.Sender).since(sb), readCounts(t, p.Receiver).since(rb)
	t.Logf("per %d writes: sender %v, receiver %v", writes, sd, rd)

	if got := sd["malloc.allocs"] + rd["malloc.allocs"]; got > 32 {
		t.Errorf("malloc.allocs = %d over %d writes after warm-up, want at most 32: the free lists missed", got, writes)
	}
	if rd["tcp.segs_out"] == 0 {
		t.Fatal("the receiver sent no ACKs")
	}
	if rd["xmit.flattened"] != 0 || rd["xmit.mapped"] != rd["tcp.segs_out"] {
		t.Errorf("receiver mapped %d and flattened %d of its %d pure ACKs, want all mapped",
			rd["xmit.mapped"], rd["xmit.flattened"], rd["tcp.segs_out"])
	}
	// The sender sends only data segments, and the receiver's driver
	// allocates one buffer for each frame it pops and none for an
	// interrupt that finds its ring empty.
	if rd["kmalloc.allocs"] != sd["tcp.segs_out"] {
		t.Errorf("receiver kmalloc.allocs = %d, want one per sender data segment (%d)",
			rd["kmalloc.allocs"], sd["tcp.segs_out"])
	}
	if sd["xmit.flattened"] == 0 {
		t.Error("no sender data segment was flattened: Table 1's send copy is gone from the stock path")
	}
}
