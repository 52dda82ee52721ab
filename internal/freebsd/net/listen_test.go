package bsdnet

// Regression tests for the listener lifecycle under connection churn:
// closing a listening socket must abort every connection still parked
// on its queues (pre-fix, queued-but-unaccepted connections were
// orphaned — never RST, never detached, their sockbuf chains leaked),
// and a SYN arriving at a full accept queue must be counted, not
// silently confused with wire loss.

import (
	"testing"
	"time"

	"oskit/internal/com"
)

// TestListenerCloseAbortsQueued connects three clients that complete
// their handshakes but are never accepted, then closes the listener.
// Every queued connection must be reset: the peers see ErrConnReset
// (not a hang), and the server stack detaches every pcb.
func TestListenerCloseAbortsQueued(t *testing.T) {
	a, b := connectedStacks(t)
	fb := b.SocketFactory()
	defer fb.Release()
	ls, err := fb.CreateSocket(com.AFInet, com.SockStream, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Bind(addrOf(ipB, 8090)); err != nil {
		t.Fatal(err)
	}
	if err := ls.Listen(8); err != nil {
		t.Fatal(err)
	}

	fa := a.SocketFactory()
	defer fa.Release()
	const clients = 3
	socks := make([]com.Socket, clients)
	for i := range socks {
		cs, err := fa.CreateSocket(com.AFInet, com.SockStream, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := cs.Connect(addrOf(ipB, 8090)); err != nil {
			t.Fatalf("client %d connect: %v", i, err)
		}
		// Data queued at the server side: the orphaned pcbs' receive
		// buffers are non-empty, so a leak would hold real mbuf storage.
		if _, err := cs.Write([]byte("queued data")); err != nil {
			t.Fatalf("client %d write: %v", i, err)
		}
		socks[i] = cs
	}
	waitSettle()

	// Close the listener with all three connections still unaccepted.
	if err := ls.Close(); err != nil {
		t.Fatal(err)
	}

	// Every peer must see the reset.  Pre-fix the children stayed
	// Established forever, so bound each read with a watchdog.
	for i, cs := range socks {
		errc := make(chan error, 1)
		go func(cs com.Socket) {
			buf := make([]byte, 16)
			_, err := cs.Read(buf)
			errc <- err
		}(cs)
		select {
		case err := <-errc:
			if err != com.ErrConnReset {
				t.Fatalf("client %d read error = %v, want reset", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("client %d never saw the reset: connection orphaned by listener close", i)
		}
		_ = cs.Close()
	}

	// The server stack must have detached every pcb (listener and all
	// queued children); lingering pcbs are exactly the pre-fix leak.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := tcpPCBCount(b); n == 0 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("server still holds %d pcbs after listener close", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// And their sockbuf chains with them: at quiescence every mbuf the
	// queued data occupied has been returned.  Pre-fix the orphaned
	// receive buffers held their chains forever.
	for {
		allocs, frees := stat(t, b, "mbuf.allocs"), stat(t, b, "mbuf.frees")
		if allocs == frees {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server leaks mbufs after listener close: %d allocated, %d freed", allocs, frees)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAcceptOverflowCounter fills a backlog-1 accept queue and drives
// one more SYN at it: the SYN is dropped silently (FreeBSD behaviour,
// the client keeps retransmitting) but the drop must surface in the
// tcp.accept_overflows statistic.
func TestAcceptOverflowCounter(t *testing.T) {
	a, b := connectedStacks(t)
	fb := b.SocketFactory()
	defer fb.Release()
	ls, err := fb.CreateSocket(com.AFInet, com.SockStream, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Bind(addrOf(ipB, 8091)); err != nil {
		t.Fatal(err)
	}
	if err := ls.Listen(1); err != nil {
		t.Fatal(err)
	}

	fa := a.SocketFactory()
	defer fa.Release()
	// First connection completes and occupies the whole accept queue.
	c1, err := fa.CreateSocket(com.AFInet, com.SockStream, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c1.Close() }()
	if err := c1.Connect(addrOf(ipB, 8091)); err != nil {
		t.Fatal(err)
	}

	// Second connection attempt: its SYN finds the queue full.  Connect
	// blocks retransmitting, so run it off-thread.
	c2, err := fa.CreateSocket(com.AFInet, com.SockStream, 0)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = c2.Connect(addrOf(ipB, 8091)) }()

	deadline := time.Now().Add(5 * time.Second)
	for stat(t, b, "tcp.accept_overflows") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("full accept queue never counted an overflow")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The drop must have been silent: no RST means the second client is
	// still patiently in SYN_SENT, not refused.
	_ = c2.Close()
	_ = ls.Close()
}
