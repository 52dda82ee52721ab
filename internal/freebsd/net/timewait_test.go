package bsdnet

import (
	"testing"

	"oskit/internal/com"
)

// TestSequentialConnectionsReusePorts is the TIME_WAIT reincarnation
// regression: a client whose own pcbs detach at LAST_ACK reuses its
// ephemeral ports while the server's side of the old connection still
// lingers in TIME_WAIT; each fresh SYN must supersede the old pcb
// (4.4BSD behaviour) instead of being silently ignored.
func TestSequentialConnectionsReusePorts(t *testing.T) {
	a, b := connectedStacks(t)
	fb := b.SocketFactory()
	defer fb.Release()
	ls, err := fb.CreateSocket(com.AFInet, com.SockStream, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Bind(addrOf(ipB, 8088)); err != nil {
		t.Fatal(err)
	}
	if err := ls.Listen(4); err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		for {
			cs, _, err := ls.Accept()
			if err != nil {
				return
			}
			buf := make([]byte, 64)
			n, _ := cs.Read(buf)
			_, _ = cs.Write(buf[:n])
			_ = cs.Close() // server closes first: client side never TIME_WAITs
		}
	}()

	fa := a.SocketFactory()
	defer fa.Release()
	for i := 0; i < 8; i++ {
		cs, err := fa.CreateSocket(com.AFInet, com.SockStream, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := cs.Connect(addrOf(ipB, 8088)); err != nil {
			t.Fatalf("connection %d: %v", i, err)
		}
		if _, err := cs.Write([]byte("ping")); err != nil {
			t.Fatalf("connection %d write: %v", i, err)
		}
		buf := make([]byte, 8)
		n, err := cs.Read(buf)
		if err != nil || string(buf[:n]) != "ping" {
			t.Fatalf("connection %d echo: %q, %v", i, buf[:n], err)
		}
		if err := cs.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// The accept loop ends, and with it the last server-side close,
	// before the machines halt.
	_ = ls.Close()
	<-served
}
