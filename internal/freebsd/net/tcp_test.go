package bsdnet

import (
	"bytes"
	"testing"
	"time"

	"oskit/internal/com"
)

// sockOn makes a TCP socket on a stack through the COM factory.
func sockOn(t *testing.T, s *Stack) com.Socket {
	t.Helper()
	f := s.SocketFactory()
	defer f.Release()
	so, err := f.CreateSocket(com.AFInet, com.SockStream, 0)
	if err != nil {
		t.Fatal(err)
	}
	return so
}

func addrOf(ip IPAddr, port uint16) com.SockAddr {
	a := com.SockAddr{Family: com.AFInet, Port: port}
	copy(a.Addr[:], ip[:])
	return a
}

func TestPing(t *testing.T) {
	a, b := connectedStacks(t)
	rtt, ok := a.Ping(ipB, 1, []byte("echo data"), 500)
	if !ok {
		t.Fatal("ping lost")
	}
	_ = rtt
	if stat(t, b, "icmp.echo_req_in") != 1 || stat(t, a, "icmp.echo_rep_in") != 1 {
		t.Fatalf("icmp stats:\na: %s\nb: %s", statDump(a), statDump(b))
	}
	// Ping an address nobody owns: times out.
	if _, ok := a.Ping(IPAddr{10, 0, 0, 99}, 2, nil, 20); ok {
		t.Fatal("ping to nowhere succeeded")
	}
}

func TestTCPConnectTransferClose(t *testing.T) {
	a, b := connectedStacks(t)

	ls := sockOn(t, b)
	if err := ls.Bind(addrOf(ipB, 7000)); err != nil {
		t.Fatal(err)
	}
	if err := ls.Listen(4); err != nil {
		t.Fatal(err)
	}

	serverDone := make(chan error, 1)
	var serverGot []byte
	go func() {
		cs, peer, err := ls.Accept()
		if err != nil {
			serverDone <- err
			return
		}
		if peer.Addr != [4]byte(ipA) {
			t.Errorf("peer = %v", peer)
		}
		buf := make([]byte, 4096)
		for {
			n, err := cs.Read(buf)
			if err != nil {
				serverDone <- err
				return
			}
			if n == 0 { // EOF
				break
			}
			serverGot = append(serverGot, buf[:n]...)
		}
		// Echo a summary back, then close.
		if _, err := cs.Write([]byte("got it all")); err != nil {
			serverDone <- err
			return
		}
		serverDone <- cs.Close()
	}()

	cs := sockOn(t, a)
	if err := cs.Connect(addrOf(ipB, 7000)); err != nil {
		t.Fatal(err)
	}
	if peer, err := cs.GetPeerName(); err != nil || peer.Port != 7000 {
		t.Fatalf("GetPeerName = %+v, %v", peer, err)
	}
	if name, err := cs.GetSockName(); err != nil || name.Addr != [4]byte(ipA) {
		t.Fatalf("GetSockName = %+v, %v", name, err)
	}

	// Send substantially more than one window.
	payload := bytes.Repeat([]byte("The Flux OSKit! "), 8192) // 128 KiB
	if n, err := cs.Write(payload); err != nil || int(n) != len(payload) {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if err := cs.Shutdown(com.ShutWrite); err != nil {
		t.Fatal(err)
	}
	reply := make([]byte, 64)
	n, err := cs.Read(reply)
	if err != nil || string(reply[:n]) != "got it all" {
		t.Fatalf("Read = %q, %v", reply[:n], err)
	}
	if err := <-serverDone; err != nil {
		t.Fatalf("server: %v", err)
	}
	// Server closed: client sees EOF.
	deadline := time.After(5 * time.Second)
	for {
		n, err = cs.Read(reply)
		if err != nil {
			t.Fatalf("post-close Read: %v", err)
		}
		if n == 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("no EOF after server close")
		default:
		}
	}
	if !bytes.Equal(serverGot, payload) {
		t.Fatalf("server received %d bytes, want %d", len(serverGot), len(payload))
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cs.Close(); err != com.ErrBadF {
		t.Fatalf("double close: %v", err)
	}
}

func TestTCPRefusedConnection(t *testing.T) {
	a, _ := connectedStacks(t)
	cs := sockOn(t, a)
	err := cs.Connect(addrOf(ipB, 4444)) // nobody listening
	if err != com.ErrConnRef {
		t.Fatalf("Connect to closed port = %v, want refused", err)
	}
}

func TestTCPRetransmissionUnderLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("loss test is slow")
	}
	wire := hw_NewEtherWireLossy(t, 0.08, 1234)
	a := bootStack(t, wire, 1, modelNE2K(), ipA)
	b := bootStack(t, wire, 2, model3C59X(), ipB)

	ls := sockOn(t, b)
	if err := ls.Bind(addrOf(ipB, 7001)); err != nil {
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
		got <- all
	}()

	cs := sockOn(t, a)
	if err := cs.Connect(addrOf(ipB, 7001)); err != nil {
		t.Fatalf("connect under loss: %v", err)
	}
	payload := bytes.Repeat([]byte("lossy channel "), 2048) // 28 KiB
	if _, err := cs.Write(payload); err != nil {
		t.Fatal(err)
	}
	_ = cs.Close()
	select {
	case all := <-got:
		if !bytes.Equal(all, payload) {
			t.Fatalf("corruption under loss: got %d bytes want %d", len(all), len(payload))
		}
	case <-time.After(60 * time.Second):
		t.Fatal("transfer never completed under loss")
	}
	if stat(t, a, "tcp.rexmt") == 0 {
		t.Error("no retransmissions recorded under 8% loss")
	}
}

func TestUDPSendToRecvFrom(t *testing.T) {
	a, b := connectedStacks(t)
	fa := a.SocketFactory()
	fb := b.SocketFactory()
	defer fa.Release()
	defer fb.Release()
	sa, err := fa.CreateSocket(com.AFInet, com.SockDgram, 0)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := fb.CreateSocket(com.AFInet, com.SockDgram, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sb.Bind(addrOf(ipB, 5353)); err != nil {
		t.Fatal(err)
	}
	done := make(chan com.SockAddr, 1)
	var gotData []byte
	go func() {
		buf := make([]byte, 256)
		n, from, err := sb.RecvFrom(buf)
		if err != nil {
			done <- com.SockAddr{}
			return
		}
		gotData = append(gotData, buf[:n]...)
		// Reply to the sender.
		if _, err := sb.SendTo([]byte("pong"), from); err != nil {
			t.Error(err)
		}
		done <- from
	}()
	waitSettle()
	if _, err := sa.SendTo([]byte("ping"), addrOf(ipB, 5353)); err != nil {
		t.Fatal(err)
	}
	from := <-done
	if from.Addr != [4]byte(ipA) {
		t.Fatalf("RecvFrom source = %+v", from)
	}
	if string(gotData) != "ping" {
		t.Fatalf("server got %q", gotData)
	}
	buf := make([]byte, 16)
	n, from2, err := sa.RecvFrom(buf)
	if err != nil || string(buf[:n]) != "pong" || from2.Port != 5353 {
		t.Fatalf("reply = %q from %+v, %v", buf[:n], from2, err)
	}
	_ = sa.Close()
	_ = sb.Close()
}

func TestSockOpts(t *testing.T) {
	a, _ := connectedStacks(t)
	so := sockOn(t, a)
	defer so.Close()
	if err := so.SetSockOpt("rcvbuf", 65536); err != nil {
		t.Fatal(err)
	}
	if v, err := so.GetSockOpt("rcvbuf"); err != nil || v != 65536 {
		t.Fatalf("rcvbuf = %d, %v", v, err)
	}
	if err := so.SetSockOpt("nodelay", 1); err != nil {
		t.Fatal(err)
	}
	if v, _ := so.GetSockOpt("nodelay"); v != 1 {
		t.Fatal("nodelay not set")
	}
	if err := so.SetSockOpt("bogus", 1); err != com.ErrInval {
		t.Fatalf("bogus option: %v", err)
	}
	if err := so.SetSockOpt("rcvbuf", -1); err != com.ErrInval {
		t.Fatalf("negative rcvbuf: %v", err)
	}
}

func TestBindConflicts(t *testing.T) {
	a, _ := connectedStacks(t)
	s1 := sockOn(t, a)
	s2 := sockOn(t, a)
	defer s1.Close()
	defer s2.Close()
	if err := s1.Bind(addrOf(ipA, 8080)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Bind(addrOf(ipA, 8080)); err != com.ErrAddrInUse {
		t.Fatalf("duplicate bind: %v", err)
	}
	if err := s2.Bind(addrOf(ipA, 0)); err != nil {
		t.Fatalf("ephemeral bind: %v", err)
	}
	name, _ := s2.GetSockName()
	if name.Port < 49152 {
		t.Fatalf("ephemeral port = %d", name.Port)
	}
}

func TestZeroCopyReceiveAccounting(t *testing.T) {
	a, b := connectedStacks(t)
	if _, ok := a.Ping(ipB, 9, bytes.Repeat([]byte{1}, 64), 500); !ok {
		t.Fatal("ping failed")
	}
	// Inbound frames arrived via skbuffs whose Map succeeds: zero-copy.
	if stat(t, b, "ether.rx_zero_copy") == 0 {
		t.Fatalf("receive path copied: %s", statDump(b))
	}
	if stat(t, b, "ether.rx_copied") != 0 {
		t.Fatalf("unexpected receive copies: %s", statDump(b))
	}
}
