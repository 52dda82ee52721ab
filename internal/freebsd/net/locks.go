package bsdnet

import "sync"

// The lock hierarchy of the FreeBSD networking component.
//
// The component is made thread-safe the §4.7.4 way: one component-wide
// lock, Stack.mu, guards all protocol state on every machine size.  It
// is taken only in the glue files, at each entry into the component
// (Stack.enter for process-level calls, the NetIO receive entries, the
// native drain and the slow-timer tick), and released across every
// sleep (Stack.sleep) and every call out to the file system
// (Stack.unlocked), so it is never held across a block.  Donor files
// take no lock but the free-list leaf.  On a uniprocessor the stack
// also keeps the giant-exclusion discipline — every process-level
// entry raises spl (disabling interrupts) before taking Stack.mu, at
// most one thread of control is inside the component, and Stack.mu is
// acquired uncontended.  On a multi-CPU machine (bsdglue.NewLocked
// reads the CPU count, as the driver glue underneath does; nothing can
// set it) spl and cli are no-ops and Stack.mu is the component's real
// exclusion.
//
// Ranks order acquisition: a thread may only acquire a lock of *higher*
// rank than any it holds.  The hierarchy (documented in DESIGN.md §13):
//
//	rank 10  stackLock  Stack.mu      every pcb, socket buffer, demux
//	                                  map, listener queue, port, the
//	                                  TIME_WAIT queue, reassembly, pings,
//	                                  the ARP cache, the interface output
//	                                  hand-off and the event allocator
//	rank 72  freeLock   Stack.freeMu  mbuf, cluster and receive-context
//	                                  free lists, cluster refcounts (leaf:
//	                                  drivers and sendfile unpins free
//	                                  mbufs from outside the stack)
//	rank 75  klLock     linuxdev klMu donor kmalloc (cross-package)
//	rank 80  sleepLock  glue.slpMu    sleep-queue hash (cross-package)
//	rank 81  mallocLock glue mallocs  BSD kernel allocator (leaf)
//	rank 82  poolLock   libc pools    fast-allocator service (leaf)
//
// Field-ownership rules are machine-checked, not prose: every shared
// field in this package carries an //oskit:guardedby, //oskit:atomic,
// or //oskit:initonly annotation on its declaration or its type (see
// the Stack, tcpcb, udpPCB, sockbuf and arpEntry types), and the
// `guarded` analyzer in internal/analysis/guarded enforces them on
// every access.  `//oskit:guardedby mu` (or `s.mu` through a
// backpointer, `Stack.mu` where there is none) names the stack lock;
// `//oskit:initonly` marks configuration written before traffic and
// read unguarded.

//oskit:lockrank 10
type stackLock struct{ sync.Mutex }

//oskit:lockrank 72
type freeLock struct{ sync.Mutex }
