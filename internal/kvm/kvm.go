// Package kvm is the kit's language-runtime case study: a small stack
// bytecode virtual machine standing in for the Kaffe JVM of the paper's
// Java/PC project (§6.1.4), exercising the same claims:
//
//   - The minimal POSIX environment carries a ported runtime: kvm's
//     native calls land in the C library's descriptor layer (files,
//     sockets, console), so the same bytecode runs over any file system
//     or protocol stack the client binds (§6.2.1).
//   - No imposed process/thread abstraction (§6.2.3): kvm implements its
//     own green threads, with preemption driven directly by the machine
//     timer through a kit callout — no host OS thread model in the way.
//   - Exposed implementation and hardware (§6.2.4): a null buffer handle
//     raises a general-protection trap through the kernel support
//     library's documented trap path, where a client (or the GDB stub)
//     can catch it — the Java null-pointer-check trick.
//
// Programs are written in kvm assembly (asm.go) or built as FLX images
// and loaded from boot modules, the path the paper's language runtimes
// invariably preferred (§6.2.2).
package kvm

import (
	"fmt"
	"sync/atomic"

	"oskit/internal/stats"
)

// Opcodes.
const (
	opHalt  = 0x00
	opPush  = 0x01
	opPop   = 0x02
	opDup   = 0x03
	opSwap  = 0x04
	opLoadG = 0x05
	opStorG = 0x06
	opLoadL = 0x07
	opStorL = 0x08

	opAdd = 0x10
	opSub = 0x11
	opMul = 0x12
	opDiv = 0x13
	opMod = 0x14
	opNeg = 0x15
	opAnd = 0x16
	opOr  = 0x17
	opXor = 0x18
	opShl = 0x19
	opShr = 0x1a

	opEq = 0x20
	opNe = 0x21
	opLt = 0x22
	opLe = 0x23
	opGt = 0x24
	opGe = 0x25

	opJmp  = 0x30
	opJz   = 0x31
	opJnz  = 0x32
	opCall = 0x33
	opRet  = 0x34

	opNative = 0x38

	opNewBuf = 0x40
	opBGet   = 0x41
	opBSet   = 0x42
	opBLen   = 0x43
	opPushS  = 0x44

	opSpawn  = 0x50
	opYield  = 0x51
	opSelfID = 0x52
	opExit   = 0x53
)

// TrapError reports a runtime fault; the embedding kernel decides what a
// fault means (the quickstart prints it; the netcomputer raises a kern
// trap).
type TrapError struct {
	PC     int
	Thread int
	What   string
}

func (e *TrapError) Error() string {
	return fmt.Sprintf("kvm: trap at pc=%d thread=%d: %s", e.PC, e.Thread, e.What)
}

// NativeFunc is a host function callable from bytecode: it receives the
// VM (for buffer access) and the popped arguments, returning one result.
type NativeFunc func(vm *VM, args []int32) (int32, error)

// Thread is one green thread.
type Thread struct {
	ID    int
	pc    int
	stack []int32
	// frames: each frame is (callerPC, stackBase, localBase).
	frames []frame
	locals []int32
	done   bool
}

type frame struct {
	retPC     int
	stackBase int
	localBase int
}

const maxLocals = 16

// VM is one virtual machine instance.
type VM struct {
	Code   []byte
	Consts []string

	globals [256]int32
	heap    map[int32][]byte
	nextH   int32
	strs    map[int32]int32 // const index -> interned handle

	threads []*Thread
	cur     int
	nextID  int

	natives map[int32]NativeFunc

	preempt atomic.Bool //oskit:atomic
	// Quantum is the instruction budget per thread between voluntary
	// switches (preemption can cut it shorter).
	Quantum int //oskit:initonly

	// BreakHook, when set, is consulted with each pc before execution;
	// returning true suspends the VM with ErrBreak (the GDB-stub
	// cooperation point).
	BreakHook func(pc int) bool //oskit:initonly

	// Trap, when set, receives faults instead of them aborting Run.
	// Returning nil resumes with the faulting thread killed.
	Trap func(*TrapError) error

	steps uint64

	// com.Stats export: green-thread scheduler counters.  The VM has no
	// environment handle, so the embedding kernel registers StatsSet().
	set        *stats.Set
	scSwitches *stats.Counter
	scPreempts *stats.Counter
	scSpawns   *stats.Counter
}

// New creates a VM for a program.
func New(code []byte, consts []string) *VM {
	vm := &VM{
		Code:    code,
		Consts:  consts,
		heap:    map[int32][]byte{},
		strs:    map[int32]int32{},
		natives: map[int32]NativeFunc{},
		nextH:   1,
		Quantum: 1000,
	}
	vm.set = stats.NewSet("kvm")
	vm.scSwitches = vm.set.Counter("sched.switches")
	vm.scPreempts = vm.set.Counter("sched.preemptions")
	vm.scSpawns = vm.set.Counter("sched.spawns")
	vm.spawn(0)
	return vm
}

// StatsSet exposes the VM's com.Stats export for registration in a
// services registry.  The VM keeps its own reference.
func (vm *VM) StatsSet() *stats.Set { return vm.set }

// RegisterNative installs a host function under an id.
func (vm *VM) RegisterNative(id int32, fn NativeFunc) { vm.natives[id] = fn }

// Preempt requests a thread switch at the next instruction boundary;
// safe to call from interrupt level (the timer callout does).
func (vm *VM) Preempt() { vm.preempt.Store(true) }

// Steps reports executed instructions (benchmarks).
func (vm *VM) Steps() uint64 { return vm.steps }

// NewBuf allocates a VM buffer and returns its handle.
func (vm *VM) NewBuf(size int32) int32 {
	h := vm.nextH
	vm.nextH++
	vm.heap[h] = make([]byte, size)
	return h
}

// Buf returns the bytes of a handle.
func (vm *VM) Buf(h int32) ([]byte, bool) {
	b, ok := vm.heap[h]
	return b, ok
}

// InternString returns a (cached) buffer handle for a constant string.
func (vm *VM) InternString(idx int32) (int32, bool) {
	if h, ok := vm.strs[idx]; ok {
		return h, true
	}
	if idx < 0 || int(idx) >= len(vm.Consts) {
		return 0, false
	}
	h := vm.NewBuf(int32(len(vm.Consts[idx])))
	copy(vm.heap[h], vm.Consts[idx])
	vm.strs[idx] = h
	return h, true
}

func (vm *VM) spawn(pc int) *Thread {
	t := &Thread{ID: vm.nextID, pc: pc, locals: make([]int32, maxLocals)}
	t.frames = []frame{{retPC: -1}}
	vm.nextID++
	vm.threads = append(vm.threads, t)
	vm.scSpawns.Inc()
	return t
}

// ErrBreak is returned by Run when BreakHook fires.
var ErrBreak = fmt.Errorf("kvm: breakpoint")

// Run interprets until every thread halts, a fault escapes, or the
// program executes HALT; it returns the HALT value (top of stack, or 0).
func (vm *VM) Run() (int32, error) {
	for {
		t := vm.pick()
		if t == nil {
			return 0, nil // all threads exited
		}
		ret, done, err := vm.runThread(t)
		if err != nil {
			return 0, err
		}
		if done {
			return ret, nil
		}
	}
}

// pick selects the next runnable thread round-robin.
func (vm *VM) pick() *Thread {
	n := len(vm.threads)
	for i := 1; i <= n; i++ {
		t := vm.threads[(vm.cur+i)%n]
		if !t.done {
			if (vm.cur+i)%n != vm.cur {
				vm.scSwitches.Inc()
			}
			vm.cur = (vm.cur + i) % n
			return t
		}
	}
	return nil
}

// runThread executes until the quantum expires, the thread blocks or
// exits, or the whole program halts (done=true).
func (vm *VM) runThread(t *Thread) (int32, bool, error) {
	budget := vm.Quantum
	for budget > 0 {
		budget--
		if vm.preempt.Swap(false) {
			vm.scPreempts.Inc()
			return 0, false, nil // preempted: switch threads
		}
		if vm.BreakHook != nil && vm.BreakHook(t.pc) {
			return 0, false, ErrBreak
		}
		ret, halted, err := vm.step(t)
		if err != nil {
			te := &TrapError{PC: t.pc, Thread: t.ID, What: err.Error()}
			if vm.Trap != nil {
				if herr := vm.Trap(te); herr == nil {
					t.done = true // fault handled: kill the thread
					return 0, false, nil
				}
			}
			return 0, false, te
		}
		if halted {
			return ret, true, nil
		}
		if t.done {
			return 0, false, nil
		}
	}
	return 0, false, nil // quantum exhausted
}

func (t *Thread) push(v int32) { t.stack = append(t.stack, v) }

func (t *Thread) pop() (int32, error) {
	base := t.frames[len(t.frames)-1].stackBase
	if len(t.stack) <= base {
		return 0, fmt.Errorf("stack underflow")
	}
	v := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	return v, nil
}

func (vm *VM) imm(t *Thread) (int32, error) {
	if t.pc+4 > len(vm.Code) {
		return 0, fmt.Errorf("truncated instruction")
	}
	v := int32(vm.Code[t.pc]) | int32(vm.Code[t.pc+1])<<8 |
		int32(vm.Code[t.pc+2])<<16 | int32(vm.Code[t.pc+3])<<24
	t.pc += 4
	return v, nil
}

// step executes one instruction; halted=true on HALT.
func (vm *VM) step(t *Thread) (int32, bool, error) {
	vm.steps++
	if t.pc < 0 || t.pc >= len(vm.Code) {
		return 0, false, fmt.Errorf("pc out of range")
	}
	op := vm.Code[t.pc]
	t.pc++
	switch op {
	case opHalt:
		v := int32(0)
		if len(t.stack) > t.frames[len(t.frames)-1].stackBase {
			v, _ = t.pop()
		}
		return v, true, nil

	case opPush:
		v, err := vm.imm(t)
		if err != nil {
			return 0, false, err
		}
		t.push(v)
	case opPop:
		if _, err := t.pop(); err != nil {
			return 0, false, err
		}
	case opDup:
		v, err := t.pop()
		if err != nil {
			return 0, false, err
		}
		t.push(v)
		t.push(v)
	case opSwap:
		a, err := t.pop()
		if err != nil {
			return 0, false, err
		}
		b, err := t.pop()
		if err != nil {
			return 0, false, err
		}
		t.push(a)
		t.push(b)

	case opLoadG, opStorG:
		idx, err := vm.imm(t)
		if err != nil {
			return 0, false, err
		}
		if idx < 0 || int(idx) >= len(vm.globals) {
			return 0, false, fmt.Errorf("global %d out of range", idx)
		}
		if op == opLoadG {
			t.push(vm.globals[idx])
		} else {
			v, err := t.pop()
			if err != nil {
				return 0, false, err
			}
			vm.globals[idx] = v
		}

	case opLoadL, opStorL:
		idx, err := vm.imm(t)
		if err != nil {
			return 0, false, err
		}
		base := t.frames[len(t.frames)-1].localBase
		if idx < 0 || int(idx) >= maxLocals {
			return 0, false, fmt.Errorf("local %d out of range", idx)
		}
		if op == opLoadL {
			t.push(t.locals[base+int(idx)])
		} else {
			v, err := t.pop()
			if err != nil {
				return 0, false, err
			}
			t.locals[base+int(idx)] = v
		}

	case opAdd, opSub, opMul, opDiv, opMod, opAnd, opOr, opXor, opShl, opShr,
		opEq, opNe, opLt, opLe, opGt, opGe:
		b, err := t.pop()
		if err != nil {
			return 0, false, err
		}
		a, err := t.pop()
		if err != nil {
			return 0, false, err
		}
		v, err := alu(op, a, b)
		if err != nil {
			return 0, false, err
		}
		t.push(v)
	case opNeg:
		a, err := t.pop()
		if err != nil {
			return 0, false, err
		}
		t.push(-a)

	case opJmp:
		a, err := vm.imm(t)
		if err != nil {
			return 0, false, err
		}
		t.pc = int(a)
	case opJz, opJnz:
		a, err := vm.imm(t)
		if err != nil {
			return 0, false, err
		}
		v, err := t.pop()
		if err != nil {
			return 0, false, err
		}
		if (op == opJz && v == 0) || (op == opJnz && v != 0) {
			t.pc = int(a)
		}

	case opCall:
		addr, err := vm.imm(t)
		if err != nil {
			return 0, false, err
		}
		nargs, err := vm.imm(t)
		if err != nil {
			return 0, false, err
		}
		newBase := len(t.locals)
		t.locals = append(t.locals, make([]int32, maxLocals)...)
		for i := int(nargs) - 1; i >= 0; i-- {
			v, err := t.pop()
			if err != nil {
				return 0, false, err
			}
			t.locals[newBase+i] = v
		}
		t.frames = append(t.frames, frame{retPC: t.pc, stackBase: len(t.stack), localBase: newBase})
		t.pc = int(addr)
	case opRet:
		if len(t.frames) == 1 {
			t.done = true
			return 0, false, nil
		}
		v, err := t.pop()
		if err != nil {
			return 0, false, err
		}
		f := t.frames[len(t.frames)-1]
		t.frames = t.frames[:len(t.frames)-1]
		t.stack = t.stack[:f.stackBase]
		t.locals = t.locals[:f.localBase]
		t.pc = f.retPC
		t.push(v)

	case opNative:
		id, err := vm.imm(t)
		if err != nil {
			return 0, false, err
		}
		nargs, err := vm.imm(t)
		if err != nil {
			return 0, false, err
		}
		fn := vm.natives[id]
		if fn == nil {
			return 0, false, fmt.Errorf("undefined native %d", id)
		}
		args := make([]int32, nargs)
		for i := int(nargs) - 1; i >= 0; i-- {
			v, err := t.pop()
			if err != nil {
				return 0, false, err
			}
			args[i] = v
		}
		res, err := fn(vm, args)
		if err != nil {
			return 0, false, err
		}
		t.push(res)

	case opNewBuf:
		size, err := t.pop()
		if err != nil {
			return 0, false, err
		}
		if size < 0 || size > 1<<20 {
			return 0, false, fmt.Errorf("bad buffer size %d", size)
		}
		t.push(vm.NewBuf(size))
	case opBGet, opBSet, opBLen:
		if err := vm.bufOp(t, op); err != nil {
			return 0, false, err
		}
	case opPushS:
		idx, err := vm.imm(t)
		if err != nil {
			return 0, false, err
		}
		h, ok := vm.InternString(idx)
		if !ok {
			return 0, false, fmt.Errorf("bad string constant %d", idx)
		}
		t.push(h)

	case opSpawn:
		addr, err := vm.imm(t)
		if err != nil {
			return 0, false, err
		}
		nt := vm.spawn(int(addr))
		t.push(int32(nt.ID))
	case opYield:
		// End the quantum at the next boundary: cooperative switch.
		vm.preempt.Store(true)
	case opSelfID:
		t.push(int32(t.ID))
	case opExit:
		t.done = true

	default:
		return 0, false, fmt.Errorf("illegal opcode %#x", op)
	}
	return 0, false, nil
}

func (vm *VM) bufOp(t *Thread, op byte) error {
	switch op {
	case opBLen:
		h, err := t.pop()
		if err != nil {
			return err
		}
		b, ok := vm.heap[h]
		if !ok {
			return fmt.Errorf("null or dangling buffer %d", h)
		}
		t.push(int32(len(b)))
	case opBGet:
		i, err := t.pop()
		if err != nil {
			return err
		}
		h, err := t.pop()
		if err != nil {
			return err
		}
		b, ok := vm.heap[h]
		if !ok {
			return fmt.Errorf("null or dangling buffer %d", h)
		}
		if i < 0 || int(i) >= len(b) {
			return fmt.Errorf("buffer index %d out of range", i)
		}
		t.push(int32(b[i]))
	case opBSet:
		v, err := t.pop()
		if err != nil {
			return err
		}
		i, err := t.pop()
		if err != nil {
			return err
		}
		h, err := t.pop()
		if err != nil {
			return err
		}
		b, ok := vm.heap[h]
		if !ok {
			return fmt.Errorf("null or dangling buffer %d", h)
		}
		if i < 0 || int(i) >= len(b) {
			return fmt.Errorf("buffer index %d out of range", i)
		}
		b[i] = byte(v)
	}
	return nil
}

func alu(op byte, a, b int32) (int32, error) {
	switch op {
	case opAdd:
		return a + b, nil
	case opSub:
		return a - b, nil
	case opMul:
		return a * b, nil
	case opDiv:
		if b == 0 {
			return 0, fmt.Errorf("divide by zero")
		}
		return a / b, nil
	case opMod:
		if b == 0 {
			return 0, fmt.Errorf("divide by zero")
		}
		return a % b, nil
	case opAnd:
		return a & b, nil
	case opOr:
		return a | b, nil
	case opXor:
		return a ^ b, nil
	case opShl:
		return a << (uint(b) & 31), nil
	case opShr:
		return int32(uint32(a) >> (uint(b) & 31)), nil
	case opEq:
		return b2i(a == b), nil
	case opNe:
		return b2i(a != b), nil
	case opLt:
		return b2i(a < b), nil
	case opLe:
		return b2i(a <= b), nil
	case opGt:
		return b2i(a > b), nil
	case opGe:
		return b2i(a >= b), nil
	}
	return 0, fmt.Errorf("bad alu op")
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}
