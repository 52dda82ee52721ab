package bsdnet

import (
	"encoding/binary"
	"testing"

	"oskit/internal/com"
)

// eventRows are the stack-level events — the ones a second, struct-shaped
// counter block used to count beside the com.Stats export — by the
// freebsd_net row each one is.
var eventRows = []string{
	"ip.in", "ip.out", "ip.bad_csum", "ip.frags_in", "ip.reasm_ok", "ip.dropped_no_route",
	"tcp.segs_in", "tcp.segs_out", "tcp.rexmt", "tcp.accept_overflows", "tcp.timewait_recycled",
	"tcp.delack_timeouts",
	"udp.in", "udp.out",
	"arp.in", "arp.out", "arp.bad_sender", "arp.dropped_unreach", "arp.held_dropped",
	"ether.rx_zero_copy", "ether.rx_copied", "ether.tx_contiguous", "ether.tx_chained",
	"icmp.echo_req_in", "icmp.echo_rep_in", "icmp.echo_rep_out",
}

// TestEachStackEventMovesOneRow drives one occurrence of every event
// through a driverless stack and pins the whole ledger after each step:
// the event's row moves by exactly one, rows of events the step also
// causes (an echo request is an IP datagram in and a reply out) move by
// their own one, and every other event row stays put — so no event is
// counted twice, under two names, or not at all.
func TestEachStackEventMovesOneRow(t *testing.T) {
	s := bareStack(t)
	mac, peerMAC := [6]byte{2, 0, 0, 0, 0, 1}, [6]byte{2, 0, 0, 0, 0, 2}
	s.ifAttach(mac, func(m *Mbuf) { m.FreeChain() })
	s.Ifconfig(fuzzIP, IPAddr{255, 255, 255, 0})
	// The peer is resolved, so output to it is never parked on ARP.  (ARP
	// frames and TCP control segments leave as one run; a UDP datagram or
	// an echo reply is a header mbuf chained to its payload.)
	s.mu.Lock()
	s.arp.entries[fuzzPeer] = &arpEntry{mac: peerMAC, valid: true}
	s.mu.Unlock()

	// A listener whose queues hold two embryonic connections, and a
	// bound UDP socket for the datagram steps.
	fac := s.SocketFactory()
	defer fac.Release()
	ls, err := fac.CreateSocket(com.AFInet, com.SockStream, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ls.Close() }()
	if err := ls.Bind(addrOf(fuzzIP, fuzzPort)); err != nil {
		t.Fatal(err)
	}
	if err := ls.Listen(1); err != nil {
		t.Fatal(err)
	}
	var udp *udpPCB
	withStack(s, func() {
		s.mu.Lock()
		udp = s.udpNew()
		err = s.udpBind(udp, 5353)
		s.mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}

	frame := func(etype uint16, src [6]byte, payload []byte) []byte {
		f := etherFrame(etype, payload)
		copy(f[6:12], src[:])
		return f
	}
	arp := func(op uint16, senderMAC [6]byte, target IPAddr) []byte {
		p := make([]byte, arpHdrLen)
		packARP(p, op, senderMAC, fuzzPeer, mac, target)
		return frame(EtherTypeARP, peerMAC, p)
	}
	ip := func(proto byte, payload []byte) []byte {
		return frame(EtherTypeIP, peerMAC, ipDatagram(proto, payload))
	}
	icmp := func(typ byte) []byte {
		p := []byte{typ, 0, 0, 0, 0, 1, 0, 9, 'h', 'i'}
		binary.BigEndian.PutUint16(p[2:4], Checksum(p, 0))
		return ip(ProtoICMP, p)
	}
	udpTo := func(dport uint16, data []byte) []byte {
		p := make([]byte, udpHdrLen+len(data))
		binary.BigEndian.PutUint16(p[0:2], 4000)
		binary.BigEndian.PutUint16(p[2:4], dport)
		binary.BigEndian.PutUint16(p[4:6], uint16(len(p)))
		copy(p[udpHdrLen:], data)
		return p
	}
	// fragment rewrites a datagram's fragment field and header checksum.
	fragment := func(d []byte, field uint16) []byte {
		binary.BigEndian.PutUint16(d[2:4], uint16(len(d)))
		binary.BigEndian.PutUint16(d[6:8], field)
		d[10], d[11] = 0, 0
		binary.BigEndian.PutUint16(d[10:12], Checksum(d[:ipHdrLen], 0))
		return frame(EtherTypeIP, peerMAC, d)
	}
	syn := func(sport uint16) []byte {
		return ip(ProtoTCP, tcpSegment(sport, fuzzPort, 100, 0, thSYN, nil))
	}
	input := func(f []byte) func() {
		return func() {
			m := s.MGetHdr()
			if m == nil || !m.Append(f) {
				t.Fatal("mbuf exhausted")
			}
			s.mu.Lock()
			s.etherInput(m, nil)
			s.mu.Unlock()
		}
	}
	send := func(dst IPAddr, data []byte) func() {
		return func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			if err := s.udpOutput(udp, data, dst, 53); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A UDP datagram split in two: 8 payload bytes, then the rest.
	whole := ipDatagram(ProtoUDP, udpTo(5353, []byte("fragmented!")))
	first := fragment(append([]byte(nil), whole[:ipHdrLen+8]...), ipFlagMF)
	last := fragment(append(append([]byte(nil), whole[:ipHdrLen]...), whole[ipHdrLen+8:]...), 1)
	badCsum := ip(ProtoUDP, udpTo(5353, []byte("x")))
	badCsum[etherHdrLen+10] ^= 0xff

	type row = map[string]int64
	steps := []struct {
		name string
		do   func()
		want row
	}{
		{"arp reply in", input(arp(arpOpReply, peerMAC, fuzzIP)), row{"arp.in": 1}},
		{"arp request answered", input(arp(arpOpRequest, peerMAC, fuzzIP)),
			row{"arp.in": 1, "arp.out": 1, "ether.tx_contiguous": 1}},
		{"arp forged sender", input(arp(arpOpReply, [6]byte{2, 9, 9, 9, 9, 9}, fuzzIP)),
			row{"arp.in": 1, "arp.bad_sender": 1}},
		{"udp to an unresolved host", send(IPAddr{10, 0, 0, 77}, []byte("held")),
			row{"udp.out": 1, "ip.out": 1, "arp.out": 1, "ether.tx_contiguous": 1}},
		{"arp gives up", func() {
			s.mu.Lock()
			s.arp.entries[IPAddr{10, 0, 0, 77}].age = 11*arpRetryTicks - 1
			s.arp.age()
			s.mu.Unlock()
		}, row{"arp.dropped_unreach": 1}},
		{"arp hold queue full", func() {
			s.mu.Lock()
			e := &arpEntry{}
			for range arpMaxHeld {
				e.held = append(e.held, s.MGetHdr())
			}
			s.arp.entries[IPAddr{10, 0, 0, 77}] = e
			s.mu.Unlock()
			send(IPAddr{10, 0, 0, 77}, []byte("one too many"))()
		}, row{"udp.out": 1, "ip.out": 1, "arp.held_dropped": 1}},
		{"echo request answered", input(icmp(icmpEchoRequest)),
			row{"ip.in": 1, "icmp.echo_req_in": 1, "icmp.echo_rep_out": 1, "ip.out": 1, "ether.tx_chained": 1}},
		{"echo reply in", input(icmp(icmpEchoReply)), row{"ip.in": 1, "icmp.echo_rep_in": 1}},
		{"ip header checksum bad", input(badCsum), row{"ip.bad_csum": 1}},
		{"first fragment", input(first), row{"ip.in": 1, "ip.frags_in": 1}},
		{"last fragment", input(last), row{"ip.in": 1, "ip.frags_in": 1, "ip.reasm_ok": 1, "udp.in": 1}},
		{"udp out", send(fuzzPeer, []byte("datagram")),
			row{"udp.out": 1, "ip.out": 1, "ether.tx_chained": 1}},
		{"udp off-subnet, no gateway", send(IPAddr{8, 8, 8, 8}, []byte("lost")),
			row{"udp.out": 1, "ip.dropped_no_route": 1}},
		{"frame mapped in", func() {
			f := arp(arpOpReply, peerMAC, fuzzIP)
			_ = (&stackRecv{s: s}).Push(com.NewMemBuf(f), uint(len(f)))
		}, row{"ether.rx_zero_copy": 1, "arp.in": 1}},
		{"frame copied in", func() {
			f := arp(arpOpReply, peerMAC, fuzzIP)
			_ = (&stackRecv{s: s}).Push(unmappable{com.NewMemBuf(f)}, uint(len(f)))
		}, row{"ether.rx_copied": 1, "arp.in": 1}},
		{"syn opens", input(syn(2000)),
			row{"ip.in": 1, "tcp.segs_in": 1, "tcp.segs_out": 1, "ip.out": 1, "ether.tx_contiguous": 1}},
		{"syn-ack retransmit timer", func() {
			s.mu.Lock()
			tp := s.tcpLookup(fuzzIP, fuzzPort, fuzzPeer, 2000)
			s.tcpTimerFire(tp, tRexmt)
			s.mu.Unlock()
		}, row{"tcp.rexmt": 1, "tcp.segs_out": 1, "ip.out": 1, "ether.tx_contiguous": 1}},
		{"second syn fills the queue", input(syn(2001)),
			row{"ip.in": 1, "tcp.segs_in": 1, "tcp.segs_out": 1, "ip.out": 1, "ether.tx_contiguous": 1}},
		{"third syn overflows it", input(syn(2002)),
			row{"ip.in": 1, "tcp.segs_in": 1, "tcp.accept_overflows": 1}},
		{"time_wait cap recycles the oldest", func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			s.maxTimeWait = 1
			for _, fport := range []uint16{3000, 3001} {
				tp := s.tcpLookup(fuzzIP, 80, fuzzPeer, fport)
				s.tcpEnterTimeWait(tp)
			}
		}, row{"tcp.timewait_recycled": 1}},
		{"sweep sends a delayed ack", func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			tp := s.tcpLookup(fuzzIP, 80, fuzzPeer, 3002)
			tp.delack = true
			s.tcpSlowTimo()
		}, row{"tcp.delack_timeouts": 1, "tcp.segs_out": 1, "ip.out": 1, "ether.tx_contiguous": 1}},
	}
	AddConnForBench(s, fuzzIP, 80, fuzzPeer, 3000)
	AddConnForBench(s, fuzzIP, 80, fuzzPeer, 3001)
	AddConnForBench(s, fuzzIP, 80, fuzzPeer, 3002)

	moved := map[string]bool{}
	read := func() row {
		r := row{}
		for _, name := range eventRows {
			r[name] = stat(t, s, name)
		}
		return r
	}
	for _, st := range steps {
		before := read()
		withStack(s, st.do)
		after := read()
		for _, name := range eventRows {
			if got := after[name] - before[name]; got != st.want[name] {
				t.Errorf("%s: %s moved by %d, want %d", st.name, name, got, st.want[name])
			}
			if st.want[name] == 1 {
				moved[name] = true
			}
		}
	}
	for _, name := range eventRows {
		if !moved[name] {
			t.Errorf("no step exercises %s", name)
		}
	}
}

// unmappable is a producer buffer that declines Map, so the stack must
// Read it into a chain of its own.
type unmappable struct{ *com.MemBuf }

func (unmappable) Map(offset, amount uint) ([]byte, error) { return nil, com.ErrNotImplemented }
