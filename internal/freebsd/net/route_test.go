package bsdnet

import (
	"testing"
	"time"

	"oskit/internal/com"
)

// TestDefaultGatewayRouting: an off-subnet destination goes to the
// configured gateway's MAC; without a gateway it is dropped and
// counted.  The stack runs driverless, so its output routine sees every
// frame it sends.
func TestDefaultGatewayRouting(t *testing.T) {
	s := bareStack(t)
	mac := [6]byte{2, 0, 0, 0, 0, 1}
	var sent [][]byte
	s.ifAttach(mac, func(m *Mbuf) {
		f := make([]byte, m.PktLen)
		m.CopyData(0, m.PktLen, f)
		m.FreeChain()
		sent = append(sent, f)
	})
	s.Ifconfig(fuzzIP, IPAddr{255, 255, 255, 0})
	far := IPAddr{8, 8, 8, 8}
	var pcb *udpPCB
	withStack(s, func() {
		s.mu.Lock()
		pcb = s.udpNew()
		s.mu.Unlock()
	})
	send := func(payload string) {
		withStack(s, func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			if err := s.udpOutput(pcb, []byte(payload), far, 53); err != nil {
				t.Fatal(err)
			}
		})
	}

	// No route: off-subnet traffic drops.
	send("lost")
	if drops := stat(t, s, "ip.dropped_no_route"); drops != 1 || len(sent) != 0 {
		t.Fatalf("ip.dropped_no_route = %d, %d frames sent", drops, len(sent))
	}

	// With fuzzPeer as the default gateway, the datagram leaves addressed
	// to the gateway's MAC while carrying the far IP destination, once an
	// ARP reply resolves the gateway.
	s.SetGateway(fuzzPeer)
	send("routed")
	gwMAC := [6]byte{2, 0, 0, 0, 0, 2}
	p := make([]byte, arpHdrLen)
	packARP(p, arpOpReply, gwMAC, fuzzPeer, mac, fuzzIP)
	f := etherFrame(EtherTypeARP, p)
	copy(f[6:12], gwMAC[:])
	_ = (&stackRecv{s: s}).Push(com.NewMemBuf(f), uint(len(f)))

	for _, f := range sent {
		if len(f) > 34 && f[12] == 0x08 && f[13] == 0x00 && f[23] == ProtoUDP {
			if [6]byte(f[0:6]) != gwMAC {
				t.Fatalf("routed frame to MAC %v, want gateway %v", f[0:6], gwMAC)
			}
			if IPAddr(f[30:34]) != far {
				t.Fatalf("IP dst = %v", f[30:34])
			}
			return
		}
	}
	t.Fatalf("routed datagram never left (%d frames sent)", len(sent))
}

// TestUDPBroadcast: a datagram to 255.255.255.255 reaches every
// listener on the segment.
func TestUDPBroadcast(t *testing.T) {
	a, b := connectedStacks(t)
	got := make(chan string, 1)
	go func() {
		restore := b.g.Enter("bcast-rcv")
		defer restore()
		spl := b.g.Splnet()
		defer b.g.Splx(spl)
		b.mu.Lock()
		pcb := b.udpNew()
		if err := b.udpBind(pcb, 6767); err != nil {
			b.mu.Unlock()
			got <- "bind-fail"
			return
		}
		buf := make([]byte, 64)
		n, from, _, err := b.udpRecv(pcb, buf)
		b.mu.Unlock()
		if err != nil {
			got <- "recv-fail"
			return
		}
		if from != a.ifIP {
			got <- "wrong-source"
			return
		}
		got <- string(buf[:n])
	}()
	time.Sleep(20 * time.Millisecond)

	restore := a.g.Enter("bcast-snd")
	spl := a.g.Splnet()
	a.mu.Lock()
	pcb := a.udpNew()
	err := a.udpOutput(pcb, []byte("hear ye"), IPAddr{255, 255, 255, 255}, 6767)
	a.mu.Unlock()
	a.g.Splx(spl)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-got:
		if msg != "hear ye" {
			t.Fatalf("broadcast receiver got %q", msg)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("broadcast never arrived")
	}
}
