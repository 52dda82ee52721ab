package bsdnet

// Tests for the hashed inpcb demux and the rotating ephemeral port
// allocator (regressions for the quadratic rescan-from-49152 allocator,
// which also returned failure permanently once the range had filled
// once), plus the TIME_WAIT cap that keeps churned ports recyclable.

import (
	"testing"
	"time"

	"oskit/internal/com"
	bsdglue "oskit/internal/freebsd/glue"
)

// withStack runs fn with a current process, the way every real caller
// reaches the pcb internals; fn takes the stack lock where it needs it.
func withStack(s *Stack, fn func()) {
	defer s.g.Enter("test")()
	fn()
}

// TestHashedLookupMatchesLinear populates listeners and connected pcbs
// and checks the hashed demux against the donor's linear walk (kept as
// the oracle) across hits, listener fallbacks, and misses.
func TestHashedLookupMatchesLinear(t *testing.T) {
	s := bareStack(t)
	withStack(s, func() {
		lp := s.tcpNew()
		if err := s.tcpBind(lp, 80, false); err != nil {
			t.Fatal(err)
		}
		if err := lp.usrListen(8); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			tp := s.tcpNew()
			tp.laddr, tp.lport = s.ifIP, 80
			tp.faddr = IPAddr{10, 0, byte(i / 8), byte(i%8 + 1)}
			tp.fport = uint16(40000 + i)
			tp.state = tcpsEstablished
			s.tcpPorts[tp.lport]++
			if err := s.tcpRegisterConn(tp); err != nil {
				t.Fatal(err)
			}
		}
		cases := []struct {
			name         string
			src          IPAddr
			sport, dport uint16
		}{
			{"exact hit", IPAddr{10, 0, 2, 3}, 40018, 80},
			{"listener fallback", IPAddr{10, 9, 9, 9}, 1234, 80},
			{"port miss", IPAddr{10, 0, 2, 3}, 40018, 81},
			{"tuple miss wrong sport", IPAddr{10, 0, 2, 3}, 40019, 80},
		}
		for _, c := range cases {
			hashed := s.tcpLookup(s.ifIP, c.dport, c.src, c.sport)
			linear := s.tcpLookupLinear(s.ifIP, c.dport, c.src, c.sport)
			if hashed != linear {
				t.Errorf("%s: hashed %p != linear %p", c.name, hashed, linear)
			}
		}
		// "tuple miss wrong sport" must fall back to the listener, and
		// the plain miss to nil — pin the oracle itself too.
		if got := s.tcpLookup(s.ifIP, 81, IPAddr{10, 0, 2, 3}, 40018); got != nil {
			t.Errorf("miss returned %p", got)
		}
		if got := s.tcpLookup(s.ifIP, 80, IPAddr{10, 0, 2, 3}, 40019); got != lp {
			t.Errorf("near-miss did not fall back to the listener")
		}
	})
}

// TestEphemeralRotates pins the allocator's rotating hint: consecutive
// allocations hand out consecutive ports instead of rescanning from the
// range base (the pre-fix quadratic behaviour under churn).
func TestEphemeralRotates(t *testing.T) {
	s := bareStack(t)
	withStack(s, func() {
		free := map[uint16]int{} // nothing held
		for i, want := range []uint16{49152, 49153, 49154} {
			p, err := s.ephemeral(free)
			if err != nil {
				t.Fatal(err)
			}
			if p != want {
				t.Fatalf("allocation %d = %d, want %d", i, p, want)
			}
		}
	})
}

// TestEphemeralWraparoundAndExhaustion drives the hint to the top of
// the range (allocation must wrap to the base, not walk off the end of
// the uint16 space) and then exhausts the range: exhaustion surfaces as
// ErrNoPorts, and — the regression — the allocator recovers as soon as
// a port frees up instead of failing forever.
func TestEphemeralWraparoundAndExhaustion(t *testing.T) {
	s := bareStack(t)
	withStack(s, func() {
		s.nextEphemeral = ephemeralCount - 1
		none := map[uint16]int{}
		p, err := s.ephemeral(none)
		if err != nil || p != 65535 {
			t.Fatalf("top of range = %d, %v", p, err)
		}
		p, err = s.ephemeral(none)
		if err != nil || p != 49152 {
			t.Fatalf("wraparound = %d, %v (want 49152)", p, err)
		}

		all := map[uint16]int{}
		for q := ephemeralBase; q < 65536; q++ {
			all[uint16(q)] = 1
		}
		if _, err := s.ephemeral(all); err != bsdglue.EADDRNOTAVAIL {
			t.Fatalf("exhaustion error = %v, want ErrNoPorts", err)
		}
		// Pre-fix the allocator returned failure permanently once the
		// range had been swept; a freed port must be allocatable again.
		delete(all, 51000)
		p, err = s.ephemeral(all)
		if err != nil || p != 51000 {
			t.Fatalf("post-exhaustion allocation = %d, %v", p, err)
		}
	})
}

// TestUDPBindConflictAndConnectRekey covers the occupancy-map bind
// conflict check and the demux re-key on connect.
func TestUDPBindConflictAndConnectRekey(t *testing.T) {
	s := bareStack(t)
	withStack(s, func() {
		p1 := s.udpNew()
		if err := s.udpBind(p1, 5000); err != nil {
			t.Fatal(err)
		}
		p2 := s.udpNew()
		if err := s.udpBind(p2, 5000); err != bsdglue.EADDRINUSE {
			t.Fatalf("conflicting bind = %v, want ErrAddrInUse", err)
		}
		peer := IPAddr{10, 0, 0, 9}
		if err := s.udpConnect(p1, peer, 7); err != nil {
			t.Fatal(err)
		}
		if got := s.udpLookup(s.ifIP, 5000, peer, 7); got != p1 {
			t.Fatal("connected pcb not found by exact 4-tuple")
		}
		if got := s.udpLookupLinear(s.ifIP, 5000, peer, 7); got != p1 {
			t.Fatal("linear oracle disagrees with hashed UDP demux")
		}
		s.udpDetach(p1)
		if got := s.udpLookup(s.ifIP, 5000, peer, 7); got != nil {
			t.Fatal("detached pcb still demuxed")
		}
		if s.udpPorts[5000] != 0 {
			t.Fatalf("port occupancy = %d after detach, want 0", s.udpPorts[5000])
		}
	})
}

// TestTimeWaitRecycling shrinks the TIME_WAIT cap and churns
// connections with the server closing first (every finished connection
// parks a server-side TIME_WAIT pcb): the cap must recycle the oldest
// lingering pcbs — counted in tcp.timewait_recycled — so the pcb
// population stays bounded instead of growing with total connections.
func TestTimeWaitRecycling(t *testing.T) {
	a, b := connectedStacks(t)
	b.mu.Enter()
	b.maxTimeWait = 2 // before any connection lingers
	b.mu.Leave()
	fb := b.SocketFactory()
	defer fb.Release()
	ls, err := fb.CreateSocket(com.AFInet, com.SockStream, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Bind(addrOf(ipB, 8092)); err != nil {
		t.Fatal(err)
	}
	if err := ls.Listen(4); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ls.Close() }()
	go func() {
		for {
			cs, _, err := ls.Accept()
			if err != nil {
				return
			}
			buf := make([]byte, 64)
			n, _ := cs.Read(buf)
			_, _ = cs.Write(buf[:n])
			_ = cs.Close() // server closes first: TIME_WAIT lands here
		}
	}()

	fa := a.SocketFactory()
	defer fa.Release()
	const churn = 8
	for i := 0; i < churn; i++ {
		cs, err := fa.CreateSocket(com.AFInet, com.SockStream, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := cs.Connect(addrOf(ipB, 8092)); err != nil {
			t.Fatalf("connection %d: %v", i, err)
		}
		if _, err := cs.Write([]byte("hi")); err != nil {
			t.Fatalf("connection %d write: %v", i, err)
		}
		buf := make([]byte, 8)
		if _, err := cs.Read(buf); err != nil {
			t.Fatalf("connection %d read: %v", i, err)
		}
		if err := cs.Close(); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for stat(t, b, "tcp.timewait_recycled") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("TIME_WAIT cap never recycled a pcb")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Bounded population: listener + at most the cap's worth of
	// TIME_WAIT pcbs (plus any connection still mid-teardown).
	if n := tcpPCBCount(b); n > 1+2+2 {
		t.Fatalf("server pcb population = %d, want bounded by the cap", n)
	}
}

// udpLookupLinear is the donor's linear UDP demux, the oracle the
// hashed lookup is checked against (twin of tcpLookupLinear).
func (s *Stack) udpLookupLinear(dst IPAddr, dport uint16, src IPAddr, sport uint16) *udpPCB {
	var wild *udpPCB
	for _, pcb := range s.udpPCBs {
		if pcb.lport != dport {
			continue
		}
		if pcb.fport == sport && pcb.faddr == src {
			return pcb
		}
		if pcb.fport == 0 {
			wild = pcb
		}
	}
	return wild
}

// tcpPCBCount reports how many TCP pcbs are attached.
func tcpPCBCount(s *Stack) int {
	restore := s.g.Enter("pcbcount")
	defer restore()
	s.mu.Enter()
	defer s.mu.Leave()
	return len(s.tcpPCBs)
}
