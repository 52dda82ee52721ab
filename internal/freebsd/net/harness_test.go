package bsdnet

import (
	"math/rand"
	"testing"
	"time"

	"oskit/internal/com"
	"oskit/internal/core"
	"oskit/internal/dev"
	bsdglue "oskit/internal/freebsd/glue"
	"oskit/internal/hw"
	"oskit/internal/kern"
	linuxdev "oskit/internal/linux/dev"
)

// bsdGlueFor builds the stack's glue the way every rig does: the
// lock-carrying constructor, whose discipline follows the machine.
func bsdGlueFor(k *kern.Kernel) *bsdglue.Glue { return bsdglue.NewLocked(k.Env) }

// The integration harness: two simulated machines on one Ethernet switch,
// each running the FreeBSD stack over an encapsulated Linux driver —
// precisely the §5 configuration.

var (
	ipA = IPAddr{10, 0, 0, 1}
	ipB = IPAddr{10, 0, 0, 2}
	nm  = IPAddr{255, 255, 255, 0}
)

// bootStack brings up one uniprocessor machine + driver + stack.
func bootStack(t *testing.T, sw *hw.EtherSwitch, mac byte, model hw.NICModel, ip IPAddr) *Stack {
	return bootStackCPUs(t, sw, mac, model, ip, 1)
}

// bootStackCPUs is bootStack on a cpus-CPU machine; more than one CPU puts
// both glue layers under the SMP discipline, as on any such node.
func bootStackCPUs(t *testing.T, sw *hw.EtherSwitch, mac byte, model hw.NICModel, ip IPAddr, cpus int) *Stack {
	t.Helper()
	m := hw.NewMachine(hw.Config{Name: "net", MemBytes: 32 << 20, CPUs: cpus})
	t.Cleanup(m.Halt)
	m.AttachNIC(sw, [6]byte{2, 0, 0, 0, 0, mac}, model)
	k, err := kern.Setup(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	fw := dev.NewFramework(k.Env)
	linuxdev.InitEthernet(fw)
	if n := fw.Probe(); n != 1 {
		t.Fatalf("probe = %d", n)
	}
	eths := fw.LookupByIID(com.EtherDevIID)
	ed := eths[0].(com.EtherDev)

	s := NewStack(bsdGlueFor(k))
	t.Cleanup(s.Close)
	if err := s.OpenEtherIf(ed); err != nil {
		t.Fatal(err)
	}
	ed.Release()
	s.Ifconfig(ip, nm)
	// Free-run the clock so TCP timers work: 1 ms host time per 10 ms
	// simulated tick keeps tests fast.
	m.Timer.Start(time.Millisecond)
	return s
}

func connectedStacks(t *testing.T) (*Stack, *Stack) { return connectedStacksCPUs(t, 1) }

func connectedStacksCPUs(t *testing.T, cpus int) (*Stack, *Stack) {
	sw := hw.NewEtherSwitch()
	a := bootStackCPUs(t, sw, 1, hw.ModelNE2K, ipA, cpus)
	b := bootStackCPUs(t, sw, 2, hw.Model3C59X, ipB, cpus)
	return a, b
}

func waitSettle() { time.Sleep(30 * time.Millisecond) }

// lockedStack applies the §4.7.4 ComponentLock recipe so several
// process-level goroutines can drive one stack: every component entry
// takes the lock, and the wrapped Sleep service drops it across blocks.
type lockedStack struct {
	s  *Stack
	lk core.ComponentLock
}

func lockStack(s *Stack) *lockedStack {
	ls := &lockedStack{s: s}
	env := s.Glue().Env()
	env.Sleep = ls.lk.WrapSleep(env.Sleep)
	return ls
}

// do runs one component call under the lock.
func (ls *lockedStack) do(fn func()) {
	ls.lk.Enter()
	defer ls.lk.Leave()
	fn()
}

// Aliases so test files avoid importing hw twice.
func modelNE2K() hw.NICModel  { return hw.ModelNE2K }
func model3C59X() hw.NICModel { return hw.Model3C59X }

// lossySwitch is a switch that drops each frame with probability p.
func lossySwitch(t *testing.T, p float64, seed int64) *hw.EtherSwitch {
	t.Helper()
	sw := hw.NewEtherSwitch()
	rng := rand.New(rand.NewSource(seed))
	// The switch serializes hook calls, so the RNG needs no lock.
	sw.SetFaultHook(func(int) hw.WireFault { return hw.WireFault{Drop: rng.Float64() < p} })
	return sw
}
