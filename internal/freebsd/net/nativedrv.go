package bsdnet

import "oskit/internal/hw"

// The donor-native Ethernet driver: the all-FreeBSD configuration the
// paper's Table 1/2 "FreeBSD 2.1.5" row measures.  Packets move between
// the driver and the protocol code as raw mbufs with no component
// boundary: received frames land in cluster mbufs handed straight to
// ether_input, and transmission gather-DMAs the chain onto the wire —
// no BufIO export, no representation conversion, no glue dispatch.
//
// (Contrast OpenEtherIf, the OSKit configuration, where the same stack
// talks to a Linux driver through COM and the chain must be copied into
// an skbuff on transmit.)

// AttachNative binds the stack directly to a NIC with the donor driver,
// the NIC grown to queues receive rings (RSS; below 2, ring 0 alone).
// Each ring gets its own interrupt line, so on a multi-CPU machine with
// affinity-routed lines the per-ring drains run concurrently — the
// configuration BenchmarkE14_SMP_Matrix measures.  The rings' handlers
// share no driver state: each drains only its own ring, and the
// protocol input path above takes the stack lock.
func (s *Stack) AttachNative(nic *hw.NIC, queues int) {
	s.attachNativeTx(nic)
	lines := nic.ConfigureRxQueues(queues)
	ic := s.g.Env().Machine.Intr
	for q, line := range lines {
		q := q
		ic.SetHandler(line, func(int) { s.nativeRxDrain(nic, q) })
		ic.SetMask(line, false)
	}
}

func (s *Stack) attachNativeTx(nic *hw.NIC) {
	// The fragment list is reused: output runs under the stack lock,
	// one frame at a time.
	var parts [][]byte
	s.ifAttach(nic.Mac, func(m *Mbuf) {
		// Gather the chain for the DMA engine.
		parts = parts[:0]
		for cur := m; cur != nil; cur = cur.Next {
			if cur.len > 0 {
				parts = append(parts, cur.Data())
			}
		}
		nic.TransmitGather(parts)
		clear(parts)
		m.FreeChain()
	})
}

// nativeRxDrain empties one receive ring into the stack (interrupt
// level, on whichever CPU the ring's line is routed to).
func (s *Stack) nativeRxDrain(nic *hw.NIC, q int) {
	for {
		f := nic.RxPopOn(q)
		if f == nil {
			return
		}
		m := s.MGetHdr()
		if m == nil {
			return
		}
		if len(f) > MHLEN && !m.MClGet() {
			m.Free()
			return
		}
		// The copy here is the receive DMA into the cluster.
		if len(f) > len(m.store)-m.off {
			m.Free()
			continue // larger than a cluster: drop
		}
		copy(m.store[m.off:], f)
		m.len = len(f)
		m.PktLen = len(f)
		s.mu.Lock()
		s.etherInput(m, nil)
		s.mu.Unlock()
	}
}
