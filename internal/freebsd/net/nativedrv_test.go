package bsdnet

import (
	"testing"

	"oskit/internal/core"
	"oskit/internal/hw"
)

// TestNativeDrainDropsWhatItCannotBuffer: a native node that can get no
// mbuf drops the frame it popped and keeps draining, so one interrupt
// leaves its ring empty, and a frame that arrives once memory is back is
// delivered.  A drain that returned on the failure left the rest of the
// ring for the next frame's interrupt.
func TestNativeDrainDropsWhatItCannotBuffer(t *testing.T) {
	s := bareStack(t)
	g := s.Glue()
	mac, peerMAC := [6]byte{2, 0, 0, 0, 0, 1}, [6]byte{2, 0, 0, 0, 0, 2}
	// NICs without an interrupt controller: delivery only fills the
	// ring, and the test runs the ring's handler itself.
	nic, peer := hw.NewNIC(nil, hw.IRQNIC0, mac), hw.NewNIC(nil, hw.IRQNIC0, peerMAC)
	sw := hw.NewEtherSwitch()
	sw.Attach(nic)
	sw.Attach(peer)
	s.AttachNative(nic, 1)
	interrupt := func() { s.nativeRxDrain(nic, 0) }

	arpReply := func(ip IPAddr) []byte {
		f := make([]byte, etherHdrLen+arpHdrLen)
		copy(f[0:6], mac[:])
		copy(f[6:12], peerMAC[:])
		f[12], f[13] = byte(EtherTypeARP>>8), byte(EtherTypeARP&0xff)
		packARP(f[etherHdrLen:], arpOpReply, peerMAC, ip, mac, IPAddr{10, 0, 0, 1})
		return f
	}

	// No mbuf on the free list, none left in the BSD malloc's bucket,
	// and no page to refill it with.
	drainFreeLists(s)
	env := g.Env()
	orig := env.MemAlloc
	env.MemAlloc = func(uint32, core.MemFlags, uint32) (hw.PhysAddr, []byte, bool) {
		return 0, nil, false
	}
	var held []vmOffset
	for {
		a, _, ok := g.Malloc.Alloc(MSIZE)
		if !ok {
			break
		}
		held = append(held, a)
	}

	for i := range 3 {
		peer.Transmit(arpReply(IPAddr{10, 0, 0, byte(10 + i)}))
	}
	interrupt()
	left := 0
	for nic.RxPop() != nil {
		left++
	}
	if left != 0 {
		t.Fatalf("%d of 3 frames left on the ring after one interrupt, want 0", left)
	}
	if got := stat(t, s, "arp.in"); got != 0 {
		t.Fatalf("arp.in = %d with no mbuf to be had, want 0", got)
	}

	env.MemAlloc = orig
	for _, a := range held {
		g.Malloc.Free(a)
	}
	peer.Transmit(arpReply(IPAddr{10, 0, 0, 20}))
	interrupt()
	if got := stat(t, s, "arp.in"); got != 1 {
		t.Fatalf("arp.in = %d after memory came back, want 1", got)
	}
}
