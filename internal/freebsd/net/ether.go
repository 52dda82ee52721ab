package bsdnet

import "encoding/binary"

// Ethernet layer: frame parse/build and the link-level demux.

const etherHdrLen = 14

// etherPad is the zeros runts are padded to the Ethernet minimum from.
var etherPad [60]byte

// etherInput demuxes one inbound frame; runs at interrupt level under
// the stack lock, which the receive entry took.  ctx, when non-nil, is
// the ingesting batch's deferral state (threaded down to TCP).
func (s *Stack) etherInput(m *Mbuf, ctx *rxCtx) {
	m = m.Pullup(etherHdrLen)
	if m == nil {
		return
	}
	hdr := m.Data()[:etherHdrLen]
	etype := binary.BigEndian.Uint16(hdr[12:14])
	var src [6]byte
	copy(src[:], hdr[6:12])
	m.Adj(etherHdrLen)
	switch etype {
	case EtherTypeIP:
		s.ipInput(m, ctx)
	case EtherTypeARP:
		s.arpInput(m, src)
	default:
		m.FreeChain()
	}
}

// etherOutput prepends the link header and hands the packet to the
// driver through its NetIO — the component boundary of §5.  Called with
// the stack lock held, which serializes the interface hand-off.
func (s *Stack) etherOutput(m *Mbuf, dst [6]byte, etype uint16) {
	m = m.Prepend(etherHdrLen)
	if m == nil {
		return
	}
	hdr := m.Data()[:etherHdrLen]
	copy(hdr[0:6], dst[:])
	copy(hdr[6:12], s.ifMAC[:])
	binary.BigEndian.PutUint16(hdr[12:14], etype)

	if m.PktLen < len(etherPad) { // pad runts to the Ethernet minimum
		if !m.Append(etherPad[:len(etherPad)-m.PktLen]) {
			m.FreeChain()
			return
		}
	}

	if m.Contiguous() {
		s.sc.txContiguous.Inc()
	} else {
		s.sc.txChained.Inc()
	}
	out := s.output // config-before-traffic; read unguarded
	if out == nil {
		m.FreeChain()
		return
	}
	out(m) // consumes the chain
}
