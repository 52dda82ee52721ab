package bsdnet

// Seeded-interleaving tests for the stack's SMP exclusion (locks.go).
// The smp.TestSchedule harness serializes N virtual CPUs and picks every
// interleaving decision from a seed — the fault plane's reproducibility
// contract — so a lock-ordering or lost-wakeup bug that only bites under
// one ordering is found by sweeping seeds and then pinned forever by its
// seed.  The unserialized counterparts (actual parallelism under -race)
// are in smp_race_test.go.

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"
	"testing"
	"time"

	"oskit/internal/com"
	bsdglue "oskit/internal/freebsd/glue"
	"oskit/internal/hw"
	"oskit/internal/kern"
	"oskit/internal/smp"
)

// connectedStacksSMP boots the usual two-machine rig on 4-CPU machines,
// which is what puts both stacks' glue (and the driver glue under them)
// in the SMP discipline: spl and cli become vestigial and the stack lock
// is the only exclusion — the configuration every test in this file and
// in smp_race_test.go exercises.
func connectedStacksSMP(t *testing.T) (*Stack, *Stack) { return connectedStacksCPUs(t, 4) }

// TestPerConnLockingInterleavings drives three virtual CPUs through the
// full connection lifecycle — create, connect, write, close — against
// one listener, yielding between every step so the seed decides which
// connection's entry into the stack runs when.
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
// with its own teardown from another virtual CPU — demux registration
// against detach.  Whatever the seed orders, the stack must neither
// deadlock nor leave the 4-tuple registered.
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

// TestScheduledARPResolveVsOutput: one virtual CPU sends datagrams to a
// neighbour nobody has resolved, so the first of them park on its ARP
// entry; the other takes the reply as an interrupt routed to the second
// CPU of a two-CPU machine, whichever send the seed lands it between.
// Every datagram must leave exactly once and in order — the parked ones
// released by the reply, the later ones sent straight through — behind a
// single request.
func TestScheduledARPResolveVsOutput(t *testing.T) {
	for _, seed := range []int64{3, 5, 8, 13} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			m := hw.NewMachine(hw.Config{Name: "arp", MemBytes: 16 << 20, CPUs: 2})
			t.Cleanup(m.Halt)
			k, err := kern.Setup(m, nil)
			if err != nil {
				t.Fatal(err)
			}
			s := NewStack(bsdglue.NewLocked(k.Env))
			t.Cleanup(s.Close)
			mac := [6]byte{2, 0, 0, 0, 0, 1}
			var sent []string // datagram payloads that left, in order
			s.ifAttach(mac, func(m *Mbuf) {
				frame := make([]byte, m.PktLen)
				m.CopyData(0, m.PktLen, frame)
				m.FreeChain()
				if binary.BigEndian.Uint16(frame[12:14]) == EtherTypeIP {
					ip := frame[etherHdrLen:]
					sent = append(sent, string(ip[ipHdrLen+udpHdrLen:binary.BigEndian.Uint16(ip[2:4])]))
				}
			})
			s.Ifconfig(fuzzIP, IPAddr{255, 255, 255, 0})
			f := s.SocketFactory()
			defer f.Release()
			so, err := f.CreateSocket(com.AFInet, com.SockDgram, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer so.Close()
			if err := so.Connect(addrOf(fuzzPeer, 53)); err != nil {
				t.Fatal(err)
			}

			// The reply, delivered by CPU 1's interrupt dispatcher.
			peer := [6]byte{2, 0, 0, 0, 0, 2}
			p := make([]byte, arpHdrLen)
			packARP(p, arpOpReply, peer, fuzzPeer, mac, fuzzIP)
			reply := etherFrame(EtherTypeARP, p)
			ic := m.Intr
			line := ic.AllocLine()
			delivered := make(chan struct{})
			ic.SetHandler(line, func(int) {
				_ = (&stackRecv{s: s}).Push(com.NewMemBuf(reply), uint(len(reply)))
				close(delivered)
			})
			ic.SetAffinity(line, 1)
			ic.SetMask(line, false)

			const n = 6
			var want []string
			held := 0 // datagrams written before the reply arrived
			sched := smp.NewTestSchedule(seed, 2)
			sched.Run(func(cpu int, yield func()) {
				if cpu == 0 {
					for i := range n {
						want = append(want, strconv.Itoa(i))
						if _, err := so.Write([]byte(want[i])); err != nil {
							t.Error(err)
						}
						yield()
					}
					return
				}
				for len(want) == 0 { // something must be parked first
					yield()
				}
				held = len(want)
				ic.Raise(line)
				<-delivered
				yield()
			})
			if held == 0 {
				t.Fatal("no datagram was parked on ARP before the reply")
			}
			if !slices.Equal(sent, want) {
				t.Fatalf("%d parked before the reply; the wire carried %q, want %q", held, sent, want)
			}
			if got := stat(t, s, "arp.out"); got != 1 {
				t.Errorf("arp.out = %d, want one request", got)
			}
		})
	}
}
