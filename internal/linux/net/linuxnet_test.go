package linuxnet

import (
	"bytes"
	"testing"
	"time"

	"oskit/internal/com"
	"oskit/internal/dev"
	bsdglue "oskit/internal/freebsd/glue"
	bsdnet "oskit/internal/freebsd/net"
	"oskit/internal/hw"
	"oskit/internal/kern"
	linuxdev "oskit/internal/linux/dev"
)

var (
	ipA = [4]byte{10, 0, 1, 1}
	ipB = [4]byte{10, 0, 1, 2}
	nm  = [4]byte{255, 255, 255, 0}
)

// bootLinux brings up a machine running the monolithic Linux
// configuration: donor driver + Linux stack, skbuffs end to end.
func bootLinux(t *testing.T, sw *hw.EtherSwitch, mac byte, ip [4]byte) *Stack {
	t.Helper()
	m := hw.NewMachine(hw.Config{Name: "linux", MemBytes: 32 << 20})
	t.Cleanup(m.Halt)
	m.AttachNIC(sw, [6]byte{2, 0, 0, 1, 0, mac}, hw.ModelNE2K)
	k, err := kern.Setup(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	lk, devs := linuxdev.ProbeNative(k.Env)
	if len(devs) != 1 {
		t.Fatalf("native probe found %d devices", len(devs))
	}
	s, err := NewStack(lk, devs[0], ip, nm)
	if err != nil {
		t.Fatal(err)
	}
	m.Timer.Start(time.Millisecond)
	return s
}

func laddr(ip [4]byte, port uint16) com.SockAddr {
	return com.SockAddr{Family: com.AFInet, Addr: ip, Port: port}
}

func tcpSock(t *testing.T, f com.SocketFactory) com.Socket {
	t.Helper()
	so, err := f.CreateSocket(com.AFInet, com.SockStream, 0)
	if err != nil {
		t.Fatal(err)
	}
	return so
}

func TestLinuxTCPTransfer(t *testing.T) {
	sw := hw.NewEtherSwitch()
	a := bootLinux(t, sw, 1, ipA)
	b := bootLinux(t, sw, 2, ipB)
	fa, fb := a.SocketFactory(), b.SocketFactory()
	defer fa.Release()
	defer fb.Release()

	ls := tcpSock(t, fb)
	if err := ls.Bind(laddr(ipB, 7100)); err != nil {
		t.Fatal(err)
	}
	if err := ls.Listen(2); err != nil {
		t.Fatal(err)
	}
	got := make(chan []byte, 1)
	go func() {
		cs, peer, err := ls.Accept()
		if err != nil {
			got <- nil
			return
		}
		if peer.Addr != ipA {
			t.Errorf("peer = %+v", peer)
		}
		var all []byte
		buf := make([]byte, 4096)
		for {
			n, err := cs.Read(buf)
			if err != nil || n == 0 {
				break
			}
			all = append(all, buf[:n]...)
		}
		_, _ = cs.Write([]byte("thanks"))
		_ = cs.Close()
		got <- all
	}()

	cs := tcpSock(t, fa)
	if err := cs.Connect(laddr(ipB, 7100)); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("linux baseline! "), 4096) // 64 KiB
	if n, err := cs.Write(payload); err != nil || int(n) != len(payload) {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if err := cs.Shutdown(com.ShutWrite); err != nil {
		t.Fatal(err)
	}
	reply := make([]byte, 16)
	n, err := cs.Read(reply)
	if err != nil || string(reply[:n]) != "thanks" {
		t.Fatalf("reply = %q, %v", reply[:n], err)
	}
	all := <-got
	if !bytes.Equal(all, payload) {
		t.Fatalf("server got %d bytes, want %d", len(all), len(payload))
	}
	_ = cs.Close()
	txA, _ := a.Counters()
	_, rxB := b.Counters()
	if txA == 0 || rxB == 0 {
		t.Fatal("no packets counted")
	}
}

func TestLinuxUDP(t *testing.T) {
	sw := hw.NewEtherSwitch()
	a := bootLinux(t, sw, 1, ipA)
	b := bootLinux(t, sw, 2, ipB)
	fa, fb := a.SocketFactory(), b.SocketFactory()
	defer fa.Release()
	defer fb.Release()
	sa, _ := fa.CreateSocket(com.AFInet, com.SockDgram, 0)
	sb, _ := fb.CreateSocket(com.AFInet, com.SockDgram, 0)
	if err := sb.Bind(laddr(ipB, 6000)); err != nil {
		t.Fatal(err)
	}
	done := make(chan string, 1)
	go func() {
		buf := make([]byte, 64)
		n, from, err := sb.RecvFrom(buf)
		if err != nil {
			done <- "err"
			return
		}
		_, _ = sb.SendTo([]byte("resp"), from)
		done <- string(buf[:n])
	}()
	time.Sleep(20 * time.Millisecond)
	if _, err := sa.SendTo([]byte("datagram"), laddr(ipB, 6000)); err != nil {
		t.Fatal(err)
	}
	if msg := <-done; msg != "datagram" {
		t.Fatalf("server got %q", msg)
	}
	buf := make([]byte, 16)
	n, from, err := sa.RecvFrom(buf)
	if err != nil || string(buf[:n]) != "resp" || from.Port != 6000 {
		t.Fatalf("reply = %q from %+v, %v", buf[:n], from, err)
	}
	_ = sa.Close()
	_ = sb.Close()
}

func TestLinuxRefusedConnect(t *testing.T) {
	sw := hw.NewEtherSwitch()
	a := bootLinux(t, sw, 1, ipA)
	_ = bootLinux(t, sw, 2, ipB)
	fa := a.SocketFactory()
	defer fa.Release()
	cs := tcpSock(t, fa)
	if err := cs.Connect(laddr(ipB, 59)); err != com.ErrConnRef {
		t.Fatalf("Connect = %v, want refused", err)
	}
}

// bootBSD brings up a machine running the FreeBSD-derived stack over
// the encapsulated driver, the peer of the mixed-stack tests.
func bootBSD(t *testing.T, sw *hw.EtherSwitch, mac byte, ip [4]byte) *bsdnet.Stack {
	t.Helper()
	m := hw.NewMachine(hw.Config{Name: "bsd", MemBytes: 32 << 20})
	t.Cleanup(m.Halt)
	m.AttachNIC(sw, [6]byte{2, 0, 0, 1, 0, mac}, hw.Model3C59X)
	k, err := kern.Setup(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	fw := dev.NewFramework(k.Env)
	linuxdev.InitEthernet(fw)
	fw.Probe()
	eths := fw.LookupByIID(com.EtherDevIID)
	bs := bsdnet.NewStack(bsdglue.New(k.Env))
	t.Cleanup(bs.Close)
	if err := bs.OpenEtherIf(eths[0].(com.EtherDev)); err != nil {
		t.Fatal(err)
	}
	eths[0].Release()
	bs.Ifconfig(bsdnet.IPAddr(ip), bsdnet.IPAddr(nm))
	m.Timer.Start(time.Millisecond)
	return bs
}

// TestLinuxAnswersPing: a BSD stack on the same switch pings a Linux
// node, whose ICMP input turns the echo request into a reply.
func TestLinuxAnswersPing(t *testing.T) {
	sw := hw.NewEtherSwitch()
	bootLinux(t, sw, 1, ipA)
	bs := bootBSD(t, sw, 2, ipB)
	for seq := uint16(1); seq <= 3; seq++ {
		if _, ok := bs.Ping(bsdnet.IPAddr(ipA), seq, []byte("echo me"), 500); !ok {
			t.Fatalf("ping %d to the Linux node got no reply", seq)
		}
	}
}

// TestInteropLinuxToBSD runs the baseline Linux stack against the
// FreeBSD-derived stack: both implement wire-standard TCP, so a transfer
// between them validates each against the other.
func TestInteropLinuxToBSD(t *testing.T) {
	sw := hw.NewEtherSwitch()
	lx := bootLinux(t, sw, 1, ipA)
	bs := bootBSD(t, sw, 2, ipB)

	// BSD listens, Linux connects and streams.
	bf := bs.SocketFactory()
	defer bf.Release()
	ls, err := bf.CreateSocket(com.AFInet, com.SockStream, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Bind(laddr(ipB, 7200)); err != nil {
		t.Fatal(err)
	}
	if err := ls.Listen(1); err != nil {
		t.Fatal(err)
	}
	got := make(chan []byte, 1)
	go func() {
		cs, _, err := ls.Accept()
		if err != nil {
			got <- nil
			return
		}
		var all []byte
		buf := make([]byte, 4096)
		for {
			n, err := cs.Read(buf)
			if err != nil || n == 0 {
				break
			}
			all = append(all, buf[:n]...)
		}
		_ = cs.Close()
		got <- all
	}()

	lf := lx.SocketFactory()
	defer lf.Release()
	cs := tcpSock(t, lf)
	if err := cs.Connect(laddr(ipB, 7200)); err != nil {
		t.Fatalf("interop connect: %v", err)
	}
	payload := bytes.Repeat([]byte("interop "), 2048) // 16 KiB
	if _, err := cs.Write(payload); err != nil {
		t.Fatal(err)
	}
	_ = cs.Close()
	select {
	case all := <-got:
		if !bytes.Equal(all, payload) {
			t.Fatalf("interop transfer corrupted: %d vs %d bytes", len(all), len(payload))
		}
	case <-time.After(30 * time.Second):
		t.Fatal("interop transfer hung")
	}
}
