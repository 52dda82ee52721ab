package bsdnet

import (
	"encoding/binary"

	"oskit/internal/cksum"
	bsdglue "oskit/internal/freebsd/glue"
)

// UDP: protocol control blocks, input demux, output.
//
// Locking: all of UDP runs under the stack lock, which the glue takes
// at every entry (socket calls and the receive interrupt alike).

const udpHdrLen = 8

type udpDatagram struct {
	from IPAddr
	port uint16
	data []byte
}

// All of UDP runs under the stack lock (rank 10): every pcb field is
// guarded by the backpointer's mu.
type udpPCB struct {
	s            *Stack //oskit:initonly
	laddr, faddr IPAddr //oskit:guardedby s.mu
	lport, fport uint16 //oskit:guardedby s.mu

	rcv      []udpDatagram //oskit:guardedby s.mu
	rcvBytes int           //oskit:guardedby s.mu
	rcvLimit int           //oskit:guardedby s.mu  SO_RCVBUF mutates it after traffic starts
	rcvEvent uint32        //oskit:initonly
	closed   bool          //oskit:guardedby s.mu
}

// udpNew allocates a pcb.  Called with the stack lock held.
func (s *Stack) udpNew() *udpPCB {
	pcb := &udpPCB{s: s, rcvLimit: defaultSockbufBytes, rcvEvent: s.newEvent()}
	s.udpPCBs = append(s.udpPCBs, pcb)
	return pcb
}

// udpDetach unlinks a pcb.  Called with the stack lock held.
func (s *Stack) udpDetach(pcb *udpPCB) {
	s.udpUnregister(pcb)
	for i, p := range s.udpPCBs {
		if p == pcb {
			s.udpPCBs = append(s.udpPCBs[:i], s.udpPCBs[i+1:]...)
			return
		}
	}
}

// udpBind assigns the local port (0 picks an ephemeral one) and enters
// the pcb in the demux maps.  The occupancy map makes both the
// ephemeral probe and the conflict check O(1); demux itself lives in
// inpcb.go.  Called with the stack lock held.
func (s *Stack) udpBind(pcb *udpPCB, port uint16) error {
	if port == 0 {
		p, err := s.ephemeral(s.udpPorts)
		if err != nil {
			return err
		}
		port = p
	} else if s.udpPorts[port] > 0 && pcb.lport != port {
		return bsdglue.EADDRINUSE
	}
	s.udpUnregister(pcb)
	pcb.laddr = s.ifIP
	pcb.lport = port
	s.udpRegister(pcb)
	return nil
}

// udpInput handles one datagram (interrupt level, stack lock held).
func (s *Stack) udpInput(m *Mbuf, src, dst IPAddr) {
	m = m.Pullup(udpHdrLen)
	if m == nil {
		return
	}
	h := m.Data()[:udpHdrLen]
	sport := binary.BigEndian.Uint16(h[0:2])
	dport := binary.BigEndian.Uint16(h[2:4])
	ulen := int(binary.BigEndian.Uint16(h[4:6]))
	if ulen < udpHdrLen || ulen > m.PktLen {
		m.FreeChain()
		return
	}
	m.Adj(ulen - m.PktLen) // trim anything past the datagram
	if binary.BigEndian.Uint16(h[6:8]) != 0 &&
		s.chainChecksum(m, pseudoSum(src, dst, ProtoUDP, ulen)) != 0 {
		// Checksum present and wrong over pseudo-header + datagram.
		m.FreeChain()
		return
	}
	payload := make([]byte, ulen-udpHdrLen)
	m.CopyData(udpHdrLen, len(payload), payload)
	m.FreeChain()

	pcb := s.udpLookup(dst, dport, src, sport)
	if pcb == nil || pcb.closed {
		return
	}
	s.sc.udpIn.Inc()
	if pcb.rcvBytes+len(payload) > pcb.rcvLimit {
		return // buffer full: drop, as UDP does
	}
	pcb.rcv = append(pcb.rcv, udpDatagram{from: src, port: sport, data: payload})
	pcb.rcvBytes += len(payload)
	s.g.Wakeup(pcb.rcvEvent)
}

// udpOutput sends one datagram.  Called at splnet with the stack lock
// held (for the ephemeral bind and the pcb fields).
func (s *Stack) udpOutput(pcb *udpPCB, data []byte, dst IPAddr, dport uint16) error {
	if pcb.lport == 0 {
		if err := s.udpBind(pcb, 0); err != nil {
			return err
		}
	}
	m := s.MGetHdr()
	if m == nil {
		return bsdglue.ENOMEM
	}
	if !m.Append(data) {
		m.FreeChain()
		return bsdglue.ENOMEM
	}
	m = m.Prepend(udpHdrLen)
	if m == nil {
		return bsdglue.ENOMEM
	}
	h := m.Data()[:udpHdrLen]
	binary.BigEndian.PutUint16(h[0:2], pcb.lport)
	binary.BigEndian.PutUint16(h[2:4], dport)
	binary.BigEndian.PutUint16(h[4:6], uint16(m.PktLen))
	h[6], h[7] = 0, 0
	csum := s.chainChecksum(m, pseudoSum(s.ifIP, dst, ProtoUDP, m.PktLen))
	if csum == 0 {
		csum = 0xffff
	}
	binary.BigEndian.PutUint16(h[6:8], csum)
	s.sc.udpOut.Inc()
	s.ipOutput(m, s.ifIP, dst, ProtoUDP, 0)
	return nil
}

// udpRecv blocks for one datagram (process level, inside an entry).
// The sleep releases the stack lock so the receive interrupt can
// deliver.
func (s *Stack) udpRecv(pcb *udpPCB, buf []byte) (int, IPAddr, uint16, error) {
	for len(pcb.rcv) == 0 {
		if pcb.closed {
			return 0, IPAddr{}, 0, bsdglue.EBADF
		}
		s.sleep(pcb.rcvEvent, "udprcv")
	}
	d := pcb.rcv[0]
	pcb.rcv = pcb.rcv[1:]
	pcb.rcvBytes -= len(d.data)
	n := copy(buf, d.data)
	return n, d.from, d.port, nil
}

// chainChecksum computes the Internet checksum over a whole chain with
// an initial pseudo-header sum (in_cksum): one kernel call per link,
// the parity of the stream offset carried across odd-length links.
func (s *Stack) chainChecksum(m *Mbuf, initial uint32) uint16 {
	sum := initial
	odd := false
	for cur := m; cur != nil; cur = cur.Next {
		sum = cksum.Add(sum, cur.Data(), odd)
		odd = odd != (cur.len&1 == 1)
	}
	return ^cksum.Fold(sum)
}
