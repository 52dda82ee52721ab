package bsdnet

// Race-regression suite for the stack's SMP exclusion: real parallelism,
// no harness serialization, meant to run under -race (scripts/check.sh
// tier-1 list).  The stack lock is what keeps these apart: receive demux
// vs. detach, accept vs. listener close, and full-lifecycle churn across
// goroutines.

import (
	"sync"
	"testing"
	"time"

	"oskit/internal/com"
)

// TestRaceConnectChurn runs the whole connection lifecycle from several
// goroutines at once against one echo-less server: concurrent connects
// share the stack lock and port allocator, established connections
// move data, and closes race the server's reads.
func TestRaceConnectChurn(t *testing.T) {
	a, b := connectedStacksSMP(t)
	fb := b.SocketFactory()
	defer fb.Release()
	ls, err := fb.CreateSocket(com.AFInet, com.SockStream, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Bind(addrOf(ipB, 9200)); err != nil {
		t.Fatal(err)
	}
	if err := ls.Listen(16); err != nil {
		t.Fatal(err)
	}
	// The server's goroutines end before the machines halt: the
	// listener closes once the workers are done (or the test fails),
	// which ends the accept loop, and every reader sees its client's EOF.
	var server sync.WaitGroup
	defer func() {
		_ = ls.Close()
		server.Wait()
	}()
	server.Add(1)
	go func() {
		defer server.Done()
		for {
			cs, _, err := ls.Accept()
			if err != nil {
				return
			}
			server.Add(1)
			go func(cs com.Socket) {
				defer server.Done()
				buf := make([]byte, 64)
				for {
					// EOF is (0, nil), POSIX style: a reader that only
					// stops on an error spins here forever once its client
					// closes, and on one core two dozen such spinners
					// starve the accept loop until the backlog overflows.
					if n, err := cs.Read(buf); err != nil || n == 0 {
						break
					}
				}
				_ = cs.Close()
			}(cs)
		}
	}()

	fa := a.SocketFactory()
	defer fa.Release()
	const workers = 4
	const iters = 6
	var wg sync.WaitGroup
	errc := make(chan error, workers*iters)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				cs, err := fa.CreateSocket(com.AFInet, com.SockStream, 0)
				if err != nil {
					errc <- err
					return
				}
				if err := cs.Connect(addrOf(ipB, 9200)); err != nil {
					errc <- err
					_ = cs.Close()
					return
				}
				if _, err := cs.Write([]byte("churn payload")); err != nil {
					errc <- err
				}
				if err := cs.Close(); err != nil {
					errc <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		// A connect on a clean wire must not fail; when one does, the
		// cause is in the counters (the stacks are fresh, so totals are
		// this run's deltas): retransmits, listen-queue drops
		// (tcp.accept_overflows), ARP traffic and give-ups
		// (arp.dropped_unreach).
		t.Fatalf("churn worker: %v\nclient stack: %s\nserver stack: %s",
			err, statDump(a), statDump(b))
	}
}

// TestRaceAcceptVsListenerClose parks several goroutines in Accept and
// closes the listener out from under them: every Accept must return
// (socket or error), never hang on a lost wakeup.
func TestRaceAcceptVsListenerClose(t *testing.T) {
	_, b := connectedStacksSMP(t)
	fb := b.SocketFactory()
	defer fb.Release()
	ls, err := fb.CreateSocket(com.AFInet, com.SockStream, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Bind(addrOf(ipB, 9201)); err != nil {
		t.Fatal(err)
	}
	if err := ls.Listen(4); err != nil {
		t.Fatal(err)
	}
	const waiters = 3
	done := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			cs, _, err := ls.Accept()
			if cs != nil {
				_ = cs.Close()
			}
			done <- err
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the waiters block
	if err := ls.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < waiters; i++ {
		select {
		case <-done:
			// Error value is unchecked on purpose: socket-or-error both
			// count; only a hang is a bug.
		case <-time.After(5 * time.Second):
			t.Fatalf("accept waiter %d hung across listener close", i)
		}
	}
}

// TestRaceDemuxVsClose pits receive demux against a concurrent close of
// the very connection being demuxed: a writer spams segments at a peer
// that tears the pcb down mid-stream.
func TestRaceDemuxVsClose(t *testing.T) {
	a, b := connectedStacksSMP(t)
	fb := b.SocketFactory()
	defer fb.Release()
	ls, err := fb.CreateSocket(com.AFInet, com.SockStream, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Bind(addrOf(ipB, 9202)); err != nil {
		t.Fatal(err)
	}
	if err := ls.Listen(4); err != nil {
		t.Fatal(err)
	}

	fa := a.SocketFactory()
	defer fa.Release()
	cs, err := fa.CreateSocket(com.AFInet, com.SockStream, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Connect(addrOf(ipB, 9202)); err != nil {
		t.Fatal(err)
	}
	srv, _, err := ls.Accept()
	if err != nil {
		t.Fatal(err)
	}

	// Writer floods while the server side closes mid-stream: inbound
	// ACK processing overlaps the server pcb's detach.  The never-reading closed peer
	// legitimately zero-windows the writer — TCP flow control — so
	// after the overlap window the client closes too, and the blocked
	// writer must wake and fail (ErrPipe), never wedge on a lost
	// wakeup.
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		buf := make([]byte, 512)
		for i := 0; i < 200; i++ {
			if _, err := cs.Write(buf); err != nil {
				return
			}
		}
	}()
	time.Sleep(5 * time.Millisecond)
	_ = srv.Close()
	time.Sleep(10 * time.Millisecond) // keep the demux/detach overlap open
	_ = cs.Close()
	select {
	case <-wrote:
	case <-time.After(10 * time.Second):
		t.Fatal("writer wedged across close: lost wakeup")
	}
	_ = ls.Close()
}
