package bsdnet

// Seeded-interleaving tests for the per-connection locking rewrite
// (locks.go).  The smp.TestSchedule harness serializes N virtual CPUs
// and picks every interleaving decision from a seed — the fault plane's
// reproducibility contract — so a lock-ordering or lost-wakeup bug that
// only bites under one ordering is found by sweeping seeds and then
// pinned forever by its seed.  The unserialized counterparts (actual
// parallelism under -race) are in smp_race_test.go.

import (
	"fmt"
	"testing"
	"time"

	"oskit/internal/com"
	"oskit/internal/smp"
)

// connectedStacksSMP boots the usual two-machine rig on 4-CPU machines,
// which is what puts both stacks' glue (and the driver glue under them)
// in the SMP discipline: spl and cli become vestigial, per-thread
// current-process tracking engages, and the locks of locks.go are the
// only exclusion — the configuration every test in this file and in
// smp_race_test.go exercises.
func connectedStacksSMP(t *testing.T) (*Stack, *Stack) { return connectedStacksCPUs(t, 4) }

// TestPerConnLockingInterleavings drives three virtual CPUs through the
// full connection lifecycle — create, connect, write, close — against
// one listener, yielding between every step so the seed decides which
// connection's stack-lock/pcb-lock/demux-lock sequence runs when.
// Every seed must end with every handshake completed, every byte
// delivered, and every pcb retired.
func TestPerConnLockingInterleavings(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1337} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			a, b := connectedStacksSMP(t)
			fb := b.SocketFactory()
			defer fb.Release()
			ls, err := fb.CreateSocket(com.AFInet, com.SockStream, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := ls.Bind(addrOf(ipB, 9100)); err != nil {
				t.Fatal(err)
			}
			if err := ls.Listen(8); err != nil {
				t.Fatal(err)
			}
			// The server side runs outside the harness: accept each
			// child, drain its payload, close it.
			served := make(chan int, 8)
			go func() {
				defer close(served)
				for {
					cs, _, err := ls.Accept()
					if err != nil {
						return
					}
					buf := make([]byte, 16)
					n, _ := cs.Read(buf)
					_ = cs.Close()
					served <- int(n)
				}
			}()

			fa := a.SocketFactory()
			defer fa.Release()
			const cpus = 3
			var errs [cpus]error
			sched := smp.NewTestSchedule(seed, cpus)
			sched.Run(func(cpu int, yield func()) {
				cs, err := fa.CreateSocket(com.AFInet, com.SockStream, 0)
				if err != nil {
					errs[cpu] = err
					return
				}
				yield()
				if err := cs.Connect(addrOf(ipB, 9100)); err != nil {
					errs[cpu] = err
					_ = cs.Close()
					return
				}
				yield()
				if _, err := cs.Write([]byte("ping")); err != nil {
					errs[cpu] = err
				}
				yield()
				if err := cs.Close(); err != nil && errs[cpu] == nil {
					errs[cpu] = err
				}
			})
			for cpu, err := range errs {
				if err != nil {
					t.Fatalf("cpu %d: %v", cpu, err)
				}
			}
			// Every connection must have been served with its payload
			// intact, whatever the interleaving was.
			for i := 0; i < cpus; i++ {
				select {
				case n := <-served:
					if n != 4 {
						t.Fatalf("served %d bytes, want 4", n)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("connection %d never served (lost under seed %d)", i, seed)
				}
			}
			if err := ls.Close(); err != nil {
				t.Fatal(err)
			}
			for range served { // the accept loop ends before the machines halt
			}
		})
	}
}

// TestScheduledConnectCloseRace interleaves a connection being set up
// with its own teardown from another virtual CPU — the demux
// registration vs. detach ordering that the no-coupling fast path
// (locks.go) revalidates against.  Whatever the seed orders, the stack
// must neither deadlock nor leave the 4-tuple registered.
func TestScheduledConnectCloseRace(t *testing.T) {
	for _, seed := range []int64{2, 11, 23} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			a, b := connectedStacksSMP(t)
			fb := b.SocketFactory()
			defer fb.Release()
			ls, err := fb.CreateSocket(com.AFInet, com.SockStream, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := ls.Bind(addrOf(ipB, 9101)); err != nil {
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
			sched := smp.NewTestSchedule(seed, 2)
			sched.Run(func(cpu int, yield func()) {
				if cpu == 0 {
					yield()
					_ = cs.Connect(addrOf(ipB, 9101)) // may lose to the close
					yield()
					return
				}
				yield()
				_ = cs.Close() // may land before, during, or after connect
				yield()
			})
			// Closing the listener aborts any server child the connect
			// managed to create, which lets the client side finish its
			// teardown (a connection whose peer is queued-unaccepted
			// parks in FIN_WAIT_2 until then — that's protocol, not a
			// leak).
			_ = ls.Close()
			// The socket is gone either way: once the wire settles, its
			// pcb must not linger in the connected-demux map holding the
			// 4-tuple (TIME_WAIT is fine — 2MSL linger is protocol too).
			deadline := time.Now().Add(5 * time.Second)
			for {
				a.mu.Lock()
				var stuck string
				for k, tp := range a.tcpHash {
					if tp.state != tcpsTimeWait {
						stuck = fmt.Sprintf("demux entry %v in state %d", k, tp.state)
						break
					}
				}
				a.mu.Unlock()
				if stuck == "" {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("leaked %s under seed %d", stuck, seed)
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}
