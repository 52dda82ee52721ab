package bsdnet

import (
	"encoding/binary"
	"slices"
	"strconv"
	"testing"

	"oskit/internal/com"
)

// A forged (or payload-corrupted) ARP reply whose sender-hardware field
// disagrees with the Ethernet source station must not be learned.  ARP
// has no checksum, so this mismatch check is the stack's only defence
// against a bit-flipped reply poisoning the cache: before it, one such
// frame black-holed every packet toward the victim IP until the entry
// aged out — the failure the cluster churn soak caught under the
// hostile-wire regime.
func TestARPRejectsMismatchedSender(t *testing.T) {
	a, b := connectedStacks(t)
	_ = b

	// Resolve the caches with real traffic first.
	if _, ok := a.Ping(ipB, 1, nil, 500); !ok {
		t.Fatal("priming ping failed")
	}

	bMAC := [6]byte{2, 0, 0, 0, 0, 2}
	evil := [6]byte{2, 0xff, 0, 0, 0, 2} // one flipped byte, as wire corruption makes

	// Forge the poison frame: the link header still carries b's real
	// station (the fabric addresses by it; the corruption faults never
	// touch it), but the ARP payload claims the flipped MAC.
	restore := a.g.Enter("forge")
	m := a.MGetHdr()
	if m == nil {
		t.Fatal("no mbuf")
	}
	frame := make([]byte, etherHdrLen+arpHdrLen)
	copy(frame[0:6], []byte{2, 0, 0, 0, 0, 1}) // dst: a
	copy(frame[6:12], bMAC[:])                 // src: b's true station
	frame[12], frame[13] = byte(EtherTypeARP>>8), byte(EtherTypeARP&0xff)
	packARP(frame[etherHdrLen:], arpOpReply, evil, ipB, [6]byte{2, 0, 0, 0, 0, 1}, ipA)
	if !m.Append(frame) {
		t.Fatal("append failed")
	}
	a.mu.Enter()
	a.etherInput(m)
	a.rxFlush()
	var e arpEntry
	if p := a.arp.entries[ipB]; p != nil {
		e = *p
	}
	a.mu.Leave()
	restore()

	if got := stat(t, a, "arp.bad_sender"); got != 1 {
		t.Errorf("arp.bad_sender = %d, want 1", got)
	}
	if !e.valid {
		t.Fatal("entry for b missing after forged reply")
	}
	if e.mac != bMAC {
		t.Errorf("cache poisoned: entry for %v learned %v, want %v", ipB, e.mac, bMAC)
	}

	// The path must still work end to end.
	if _, ok := a.Ping(ipB, 2, nil, 500); !ok {
		t.Fatal("ping after forged reply failed: cache poisoned")
	}
}

// TestARPHoldsABurst: packets to an unresolved neighbour queue on its
// entry behind one request, and its reply sends every one of them, in
// order.  Past arpMaxHeld the oldest is dropped and counted.  With one
// held packet per entry, a burst of connects to a fresh neighbour lost
// every SYN but the last to a retransmit timer.
func TestARPHoldsABurst(t *testing.T) {
	s := bareStack(t)
	mac := [6]byte{2, 0, 0, 0, 0, 1}
	requests := 0
	var sent []string // UDP payloads that left, in order
	s.ifAttach(mac, func(m *Mbuf) {
		frame := make([]byte, m.PktLen)
		m.CopyData(0, m.PktLen, frame)
		m.FreeChain()
		switch binary.BigEndian.Uint16(frame[12:14]) {
		case EtherTypeARP:
			requests++
		case EtherTypeIP:
			ip := frame[etherHdrLen:]
			sent = append(sent, string(ip[ipHdrLen+udpHdrLen:binary.BigEndian.Uint16(ip[2:4])]))
		}
	})
	s.Ifconfig(fuzzIP, IPAddr{255, 255, 255, 0})
	idle := stat(t, s, "mbuf.allocs") - stat(t, s, "mbuf.frees")
	var udp *udpPCB
	withStack(s, func() {
		s.mu.Enter()
		defer s.mu.Leave()
		udp = s.udpNew()
		if err := s.udpBind(udp, 5353); err != nil {
			t.Fatal(err)
		}
	})
	burst := func(dst IPAddr, n int) []string {
		var want []string
		withStack(s, func() {
			s.mu.Enter()
			defer s.mu.Leave()
			for i := range n {
				want = append(want, strconv.Itoa(i))
				if err := s.udpOutput(udp, []byte(want[i]), dst, 53); err != nil {
					t.Fatal(err)
				}
			}
		})
		return want
	}
	reply := func(ip IPAddr, station byte) {
		hw := [6]byte{2, 0, 0, 0, 0, station}
		p := make([]byte, arpHdrLen)
		packARP(p, arpOpReply, hw, ip, mac, fuzzIP)
		f := etherFrame(EtherTypeARP, p)
		copy(f[6:12], hw[:])
		_ = (&stackRecv{s: s}).Push(com.NewMemBuf(f), uint(len(f)))
	}

	want := burst(fuzzPeer, 8)
	if requests != 1 || len(sent) != 0 {
		t.Fatalf("8 packets to an unresolved neighbour: %d requests, %d sent; want 1 and 0", requests, len(sent))
	}
	reply(fuzzPeer, 2)
	if !slices.Equal(sent, want) {
		t.Fatalf("the reply released %q, want %q", sent, want)
	}

	sent = nil
	other := IPAddr{10, 0, 0, 3}
	want = burst(other, arpMaxHeld+1)
	if requests != 2 {
		t.Errorf("%d requests after a second neighbour's burst, want 2", requests)
	}
	if got := stat(t, s, "arp.held_dropped"); got != 1 {
		t.Errorf("arp.held_dropped = %d after %d packets, want 1", got, arpMaxHeld+1)
	}
	reply(other, 3)
	if !slices.Equal(sent, want[1:]) {
		t.Fatalf("the reply released %q, want all but the oldest: %q", sent, want[1:])
	}
	if got := stat(t, s, "mbuf.allocs") - stat(t, s, "mbuf.frees"); got != idle {
		t.Errorf("live mbufs = %d after both replies, %d before the bursts", got, idle)
	}
}
