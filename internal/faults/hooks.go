package faults

import (
	"sync/atomic"

	"oskit/internal/core"
	"oskit/internal/hw"
)

// This file turns a Plan into the concrete hooks the simulated hardware
// and the kit's memory services accept.  Each factory binds a set of
// injection points once; the returned hook is then a pure consumer of
// those points' decision streams.

// WireHook builds the frame-fault hook for an Ethernet segment,
// covering burst loss, corruption, duplication and reordering.  The
// wire serializes hook calls (one frame at a time), so the burst state
// needs no lock of its own.
func (in *Injector) WireHook() hw.WireFaultHook {
	plan := in.plan
	drop := in.Point("wire.drop")
	corrupt := in.Point("wire.corrupt")
	dup := in.Point("wire.dup")
	reorder := in.Point("wire.reorder")
	// wire.drop is the long-run fraction of frames lost; wire.burst only
	// clusters those losses into runs.  A burst of b frames therefore
	// *starts* with probability rate/b, keeping "20% burst loss" at 20%
	// of frames rather than 20% of burst opportunities.
	startRate := plan.WireDrop
	if plan.WireBurst > 1 {
		startRate /= float64(plan.WireBurst)
	}
	burstLeft := 0
	return func(frameLen int) hw.WireFault {
		var f hw.WireFault
		if burstLeft > 0 {
			// Continuation of a burst begun below: the drop is
			// unconditional but still charged to the point, so traces
			// and counters see every lost frame.
			burstLeft--
			drop.FireNext()
			f.Drop = true
			return f
		}
		if fired, _ := drop.Roll(startRate); fired {
			if plan.WireBurst > 1 {
				burstLeft = plan.WireBurst - 1
			}
			f.Drop = true
			return f
		}
		if fired, h := corrupt.Roll(plan.WireCorrupt); fired {
			f.Corrupt = true
			// The same hash that fired the fault picks the byte, so the
			// corruption position replays with the decision.
			f.CorruptOff = int(h % uint64(frameLen))
		}
		if fired, _ := dup.Roll(plan.WireDup); fired {
			f.Duplicate = true
		}
		if fired, _ := reorder.Roll(plan.WireReorder); fired {
			f.Reorder = true
		}
		return f
	}
}

// NICRxHook builds a receive-ring overrun hook for one NIC; name keeps
// the two rig nodes' NICs on distinct decision streams (for example
// "nic.rx.send" and "nic.rx.recv").
func (in *Injector) NICRxHook(name string) func() bool {
	plan := in.plan
	p := in.Point(name)
	return func() bool {
		fired, _ := p.Roll(plan.NICOverflow)
		return fired
	}
}

// DiskHook builds the media-fault hook for one disk.  Torn writes are
// decided first (they are the more specific fault); a torn write
// transfers a hash-chosen strict prefix of the request's sectors and
// then fails it with ErrInjected.
func (in *Injector) DiskHook(name string) hw.DiskFaultHook {
	plan := in.plan
	errPt := in.Point(name + ".err")
	tornPt := in.Point(name + ".torn")
	return func(write bool, sector, count uint32) hw.DiskFault {
		if write {
			if fired, h := tornPt.Roll(plan.DiskTorn); fired {
				var torn uint32
				if count > 1 {
					torn = 1 + uint32(h%uint64(count-1))
				}
				return hw.DiskFault{Err: ErrInjected, TornSectors: torn}
			}
		}
		if fired, _ := errPt.Roll(plan.DiskErr); fired {
			return hw.DiskFault{Err: ErrInjected}
		}
		return hw.DiskFault{}
	}
}

// TimerHook builds the clock-jitter hook for one machine's timer.
func (in *Injector) TimerHook(name string) hw.TickFaultHook {
	plan := in.plan
	p := in.Point(name)
	return func(tick uint64) bool {
		fired, _ := p.Roll(plan.TimerJitter)
		return fired
	}
}

// AllocFailFunc builds an allocation-failure decision for one
// allocator (the QuickPool service, the BSD kernel malloc, the Linux
// kmalloc buckets): rate-based plus the fail-the-Nth schedule.  The
// Nth is 1-based and per-point, so "alloc.nth=3" fails the third
// allocation each named allocator attempts.
func (in *Injector) AllocFailFunc(name string) func(size uint32) bool {
	plan := in.plan
	p := in.Point(name)
	return func(size uint32) bool {
		idx := p.next()
		if plan.AllocFailNth != 0 && idx+1 == plan.AllocFailNth {
			p.fire(idx)
			return true
		}
		if plan.AllocRate > 0 && hashBelow(mix(p.seed, idx), plan.AllocRate) {
			p.fire(idx)
			return true
		}
		return false
	}
}

// WrapAlloc interposes the injector on an environment's memory service
// — the paper's overridable-functions pattern (§4.2.1) pointed at
// hostility: every component drawing pages through env.MemAlloc (the
// LMM default, BSD malloc refill, Linux kmalloc buckets) sees injected
// failure without knowing the injector exists.  Beyond AllocFailFunc's
// rate and Nth schedules it enforces alloc.pressure: once live bytes
// (allocs minus frees through this seam) exceed the threshold, every
// further allocation fails until frees bring the level back down.
// Call after boot, so setup cannot be failed mid-construction.
func (in *Injector) WrapAlloc(env *core.Env, name string) {
	plan := in.plan
	p := in.Point(name)
	var live atomic.Int64
	origAlloc, origFree := env.MemAlloc, env.MemFree
	env.MemAlloc = func(size uint32, flags core.MemFlags, align uint32) (hw.PhysAddr, []byte, bool) {
		idx := p.next()
		fired := plan.AllocFailNth != 0 && idx+1 == plan.AllocFailNth
		if !fired && plan.AllocPressure != 0 && live.Load() >= int64(plan.AllocPressure) {
			fired = true
		}
		if !fired && plan.AllocRate > 0 && hashBelow(mix(p.seed, idx), plan.AllocRate) {
			fired = true
		}
		if fired {
			p.fire(idx)
			return 0, nil, false
		}
		addr, buf, ok := origAlloc(size, flags, align)
		if ok {
			live.Add(int64(size))
		}
		return addr, buf, ok
	}
	env.MemFree = func(addr hw.PhysAddr, size uint32) {
		live.Add(-int64(size))
		origFree(addr, size)
	}
}
