package bsdnet

import "sync"

// The SMP lock hierarchy of the FreeBSD networking component.
//
// On a uniprocessor the stack keeps the §4.7.4 giant-exclusion
// discipline: every entry point raises spl (disabling interrupts) and at
// most one thread of control is inside the component, so every mutex
// below is acquired uncontended and costs one atomic operation.  On a
// multi-CPU machine (bsdglue.NewLocked reads the CPU count, as the driver
// glue underneath does; nothing can set it) spl and cli are no-ops and
// these locks are the component's real exclusion — the per-connection-
// locking rewrite of the donor's spl discipline.
//
// Ranks order acquisition: a thread may only acquire a lock of *higher*
// rank than any it holds.  The hierarchy (documented in DESIGN.md §13):
//
//	rank 10  stackLock  Stack.mu      pcb lists, demux registration,
//	                                  listener queues, ports, TIME_WAIT,
//	                                  reassembly, pings, UDP, events
//	rank 20  pcbLock    tcpcb.mu      per-connection TCP state incl.
//	                                  both socket buffers
//	rank 30  demuxLock  Stack.demuxMu the established-connection hash
//	                                  (readers; writers also hold mu)
//	rank 50  arpLock    Stack.arpMu   resolution cache + held packets
//	rank 60  txLock     Stack.txMu    the interface output hand-off
//	rank 70  mclLock    Stack.mclMu   cluster refcount table
//	rank 72  freeLock   Stack.freeMu  mbuf-header and receive-context
//	                                  free lists (leaf)
//	rank 75  klLock     linuxdev klMu donor kmalloc in SMP mode
//	                                  (cross-package)
//	rank 80  sleepLock  glue.slpMu    sleep-queue hash (cross-package)
//	rank 81  mallocLock glue mallocs  BSD kernel allocator (leaf)
//	rank 82  poolLock   libc pools    fast-allocator service (leaf)
//
// The fast receive path deliberately does NOT couple ranks 30 and 20:
// it reads the demux hash under demuxMu.RLock, drops it, then locks the
// pcb and revalidates (identity, state, attachment).  Coupling them the
// intuitive way — bucket held while locking the pcb — would invert the
// pcb-before-demux order the registration paths need (detach holds the
// pcb lock while unhooking its hash entry) and deadlock.
//
// One same-rank pcbLock nesting exists, deadlock-free because the inner
// pcb is only ever reachable under Stack.mu (which the outer holder also
// holds):
//
//	current pcb  -> recycled TIME_WAIT pcb   (tcpEnterTimeWait)
//
// The outer pcb lock is taken by tcpEnterTimeWait's caller, so the
// intra-procedural rank check never sees the pair; the reason is a plain
// comment at the inner acquisition, not a waiver.
//
// Field-ownership rules are machine-checked, not prose: every shared
// field in this package carries an //oskit:guardedby, //oskit:atomic,
// or //oskit:initonly annotation on its declaration (see the Stack,
// tcpcb, udpPCB, sockbuf and arpTable types), and the
// `guarded` analyzer in internal/analysis/guarded enforces them on
// every access.  The annotation forms map to the disciplines that used
// to be listed here:
//
//   - `//oskit:guardedby mu` — the field's own struct's lock.
//   - `//oskit:guardedby mu+s.mu` — written only with BOTH held, so a
//     reader may hold either (tcpcb identity, state, err).
//   - `//oskit:guardedby mu+demuxMu` — same write-both/read-either
//     shape for Stack.tcpHash (fast path demuxMu.RLock, slow Stack.mu).
//   - `//oskit:atomic` — sync/atomic only (tcpcb.pcbIdx, Stack.ipID).
//   - `//oskit:initonly` — written before traffic, read unguarded
//     (interface configuration, packet pool).
//
// Exceptions are //oskit:allow waivers at the access, each carrying its
// reviewed justification.

//oskit:lockrank 10
type stackLock struct{ sync.Mutex }

//oskit:lockrank 20
type pcbLock struct{ sync.Mutex }

//oskit:lockrank 30
type demuxLock struct{ sync.RWMutex }

//oskit:lockrank 50
type arpLock struct{ sync.Mutex }

//oskit:lockrank 60
type txLock struct{ sync.Mutex }

//oskit:lockrank 70
type mclLock struct{ sync.Mutex }

//oskit:lockrank 72
type freeLock struct{ sync.Mutex }
