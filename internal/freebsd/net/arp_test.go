package bsdnet

import "testing"

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
	spl := a.g.Splnet()
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
	a.etherInput(m, nil)

	if got := stat(t, a, "arp.bad_sender"); got != 1 {
		t.Errorf("arp.bad_sender = %d, want 1", got)
	}
	e := a.arp.entries[ipB]
	if e == nil || !e.valid {
		t.Fatal("entry for b missing after forged reply")
	}
	if e.mac != bMAC {
		t.Errorf("cache poisoned: entry for %v learned %v, want %v", ipB, e.mac, bMAC)
	}
	a.g.Splx(spl)
	restore()

	// The path must still work end to end.
	if _, ok := a.Ping(ipB, 2, nil, 500); !ok {
		t.Fatal("ping after forged reply failed: cache poisoned")
	}
}
