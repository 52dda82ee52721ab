package bsdnet

import bsdglue "oskit/internal/freebsd/glue"

// Hashed protocol-control-block demux and the ephemeral port allocator.
//
// The donor stack demuxed with a linear walk of the pcb list — fine for
// the paper's two-PC testbed, quadratic misery under the cluster rig's
// connection churn (thousands of concurrent pcbs at one server node).
// This file replaces the walk with 4.4BSD-Lite2-shaped inpcb hashing:
// an exact 4-tuple map for connected pcbs, a local-port map for
// listeners and unconnected (wildcard) UDP sockets, and a per-port
// occupancy count that makes the ephemeral allocator and bind conflict
// checks O(1).  All maps are keyed structures consulted under splnet;
// nothing iterates them, so map order can leak nowhere (determinism
// contract, see cmd/oskitcheck).

// tcpKey is the exact-match demux key (local address/port, foreign
// address/port — dst before src, the direction an inbound segment reads).
type tcpKey struct {
	laddr IPAddr
	lport uint16
	faddr IPAddr
	fport uint16
}

// udpKey is tcpKey for UDP pcbs.
type udpKey struct {
	laddr IPAddr
	lport uint16
	faddr IPAddr
	fport uint16
}

// The IANA dynamic port range the ephemeral allocator hands out.
const (
	ephemeralBase  = 49152
	ephemeralCount = 65536 - ephemeralBase
)

// ephemeral picks a free dynamic port, rotating a next-port hint so
// allocation is O(1) amortized instead of rescanning from the range
// base (which goes quadratic under connection churn and permanently
// starves once the range has filled once).  Ports held by lingering
// pcbs — TIME_WAIT included — are skipped only while actually held; a
// full sweep finding nothing free is surfaced as its own error so
// callers can tell exhaustion from an address conflict.
func (s *Stack) ephemeral(held map[uint16]int) (uint16, error) {
	for i := uint16(0); i < ephemeralCount; i++ {
		p := ephemeralBase + (s.nextEphemeral+i)%ephemeralCount
		if held[p] == 0 {
			s.nextEphemeral = (s.nextEphemeral + i + 1) % ephemeralCount
			return p, nil
		}
	}
	return 0, bsdglue.EADDRNOTAVAIL
}

// --- TCP registration.

// tcpRegisterConn enters a fully-specified pcb in the exact-match map.
// Fails when the 4-tuple is already taken (a connect colliding with a
// live connection or a lingering TIME_WAIT pcb).  Called with the stack
// lock held.
func (s *Stack) tcpRegisterConn(tp *tcpcb) error {
	k := tcpKey{tp.laddr, tp.lport, tp.faddr, tp.fport}
	if _, taken := s.tcpHash[k]; taken {
		return bsdglue.EADDRINUSE
	}
	s.tcpHash[k] = tp
	return nil
}

// tcpLookup demuxes an inbound segment: exact 4-tuple match first, then
// the listener on the destination port.  Called with the stack lock
// held.
func (s *Stack) tcpLookup(dst IPAddr, dport uint16, src IPAddr, sport uint16) *tcpcb {
	if tp, ok := s.tcpHash[tcpKey{dst, dport, src, sport}]; ok {
		return tp
	}
	if lp, ok := s.tcpListen[dport]; ok {
		return lp
	}
	return nil
}

// tcpLookupLinear is the donor's linear demux, kept as the measured
// baseline for the E13 hashed-vs-linear comparison (and as an oracle
// for the equivalence test).
func (s *Stack) tcpLookupLinear(dst IPAddr, dport uint16, src IPAddr, sport uint16) *tcpcb {
	var listener *tcpcb
	for _, tp := range s.tcpPCBs {
		if tp.lport != dport {
			continue
		}
		if !tp.listening && tp.fport == sport && tp.faddr == src {
			return tp
		}
		if tp.listening {
			listener = tp
		}
	}
	return listener
}

// --- UDP registration.

// udpRegister enters a bound pcb in the maps that match its shape:
// wildcard pcbs (no foreign port) in the port map, connected pcbs in
// the exact-match map.  Port occupancy is counted either way.
func (s *Stack) udpRegister(pcb *udpPCB) {
	if pcb.lport == 0 {
		return
	}
	s.udpPorts[pcb.lport]++
	if pcb.fport == 0 {
		s.udpWild[pcb.lport] = pcb
	} else {
		s.udpHash[udpKey{pcb.laddr, pcb.lport, pcb.faddr, pcb.fport}] = pcb
	}
}

// udpUnregister removes whatever udpRegister entered.
func (s *Stack) udpUnregister(pcb *udpPCB) {
	if pcb.lport == 0 {
		return
	}
	if n := s.udpPorts[pcb.lport]; n <= 1 {
		delete(s.udpPorts, pcb.lport)
	} else {
		s.udpPorts[pcb.lport] = n - 1
	}
	if pcb.fport == 0 {
		if s.udpWild[pcb.lport] == pcb {
			delete(s.udpWild, pcb.lport)
		}
	} else {
		k := udpKey{pcb.laddr, pcb.lport, pcb.faddr, pcb.fport}
		if s.udpHash[k] == pcb {
			delete(s.udpHash, k)
		}
	}
}

// udpConnect fixes the pcb's foreign endpoint, re-keying its demux
// entry, and binds an ephemeral local port if none is assigned yet.
func (s *Stack) udpConnect(pcb *udpPCB, faddr IPAddr, fport uint16) error {
	s.udpUnregister(pcb)
	pcb.faddr, pcb.fport = faddr, fport
	s.udpRegister(pcb)
	if pcb.lport == 0 {
		return s.udpBind(pcb, 0)
	}
	return nil
}

// udpLookup finds the best-matching pcb (exact 4-tuple beats wildcard).
func (s *Stack) udpLookup(dst IPAddr, dport uint16, src IPAddr, sport uint16) *udpPCB {
	if pcb, ok := s.udpHash[udpKey{dst, dport, src, sport}]; ok {
		return pcb
	}
	if pcb, ok := s.udpWild[dport]; ok {
		return pcb
	}
	return nil
}
