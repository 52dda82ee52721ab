package bsdnet

import (
	"testing"
	"time"

	"oskit/internal/com"
	"oskit/internal/hw"
)

// TestDefaultGatewayRouting: an off-subnet destination goes to the
// configured gateway's MAC; without a gateway it is dropped and
// counted.
func TestDefaultGatewayRouting(t *testing.T) {
	a, b := connectedStacks(t)

	// No route: off-subnet traffic drops.
	spl := a.g.Splnet()
	a.mu.Lock()
	pcb := a.udpNew()
	err := a.udpOutput(pcb, []byte("lost"), IPAddr{8, 8, 8, 8}, 53)
	a.mu.Unlock()
	drops := stat(t, a, "ip.dropped_no_route")
	a.g.Splx(spl)
	if err != nil {
		t.Fatal(err)
	}
	if drops != 1 {
		t.Fatalf("ip.dropped_no_route = %d", drops)
	}

	// With B as the default gateway, the datagram leaves addressed to
	// B's MAC while carrying the far IP destination.
	a.SetGateway(ipB)
	// Prime ARP for the gateway.
	if _, ok := a.Ping(ipB, 3, nil, 500); !ok {
		t.Fatal("gateway ping failed")
	}

	// A promiscuous sniffer on the wire sees the routed frame.
	snifferIC := hw.NewIntrController()
	sniffer := hw.NewNIC(snifferIC, hw.IRQNIC0, [6]byte{2, 0xff, 0, 0, 0, 1})
	sniffer.SetPromiscuous(true)
	wireOf(t, a).Attach(sniffer)

	spl = a.g.Splnet()
	a.mu.Lock()
	err = a.udpOutput(pcb, []byte("routed"), IPAddr{8, 8, 8, 8}, 53)
	a.mu.Unlock()
	a.g.Splx(spl)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(2 * time.Second)
	for {
		f := sniffer.RxPop()
		if f != nil && len(f) > 34 && f[12] == 0x08 && f[13] == 0x00 && f[23] == ProtoUDP {
			var dstMAC [6]byte
			copy(dstMAC[:], f[0:6])
			gwMAC := b.ifMAC
			if dstMAC != gwMAC {
				t.Fatalf("routed frame to MAC %v, want gateway %v", dstMAC, gwMAC)
			}
			if IPAddr(f[30:34]) != (IPAddr{8, 8, 8, 8}) {
				t.Fatalf("IP dst = %v", f[30:34])
			}
			return
		}
		select {
		case <-deadline:
			t.Fatal("routed frame never appeared on the wire")
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

// wireOf digs the test wire back out (the harness built it).
func wireOf(t *testing.T, s *Stack) *hw.EtherWire {
	t.Helper()
	// connectedStacks attaches both machines' NICs to one wire; reach
	// it through the machine bus.
	for _, d := range s.g.Env().Machine.Bus.Devices() {
		if nic, ok := d.HW.(*hw.NIC); ok {
			return hw.WireOfForTest(nic)
		}
	}
	t.Fatal("no NIC on bus")
	return nil
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
	_ = com.ErrNoEnt
}
