package guardedtest

import "sync"

// The EtherSwitch.held shape: a field annotated with one of its
// struct's mutexes, accessed under the *other* one, through a local
// alias of a backpointer, inside an unexported method that package code
// reaches only through an interface.

type fabric struct {
	mu     sync.Mutex
	hookMu sync.Mutex
	held   []byte //oskit:guardedby hookMu
}

type fabricPort struct{ sw *fabric }

type segment interface{ transmit(f []byte) }

func (p *fabricPort) transmit(f []byte) {
	sw := p.sw
	sw.mu.Lock()
	held := sw.held // want `interface method transmit reaches fabric\.held \(//oskit:guardedby hookMu\) without sw\.hookMu held`
	sw.held = f     // want `interface method transmit reaches fabric\.held \(//oskit:guardedby hookMu\) without sw\.hookMu held exclusively`
	sw.mu.Unlock()
	_ = held
}

// Send is the only caller, and it dispatches dynamically.
func Send(s segment, f []byte) { s.transmit(f) }

// Holding the annotated sibling is what the annotation asks for.
func (p *fabricPort) reset() {
	sw := p.sw
	sw.hookMu.Lock()
	sw.held = nil
	sw.hookMu.Unlock()
}

var _ = (*fabricPort).reset
