// Package hw is the simulated PC platform the kit runs on.
//
// The paper's OSKit ran on real x86 PCs; a Go runtime cannot (repro note in
// DESIGN.md §2), so this package substitutes a software machine that
// preserves the properties the paper's components depend on:
//
//   - A flat physical memory where addresses are integers and device DMA is
//     restricted to the low 16 MB (driving the LMM's "memory types").
//   - Asynchronous devices (NICs, disks, serial ports, a timer) that raise
//     interrupts from their own threads of control.
//   - The two-level execution model of §4.7.4: process level runs normally
//     and may block; interrupt level is entered one handler at a time, runs
//     to completion, never blocks, and is excluded by Disable/Enable
//     (cli/sti) critical sections at process level.
//
// Everything above this package — kernel support, drivers, protocol stacks,
// file systems — is written exactly as it would be against real hardware.
package hw

import "fmt"

// Config selects the shape of a simulated machine.
type Config struct {
	// Name labels the machine in logs ("sender", "receiver").
	Name string
	// MemBytes is the physical memory size; 0 means 32 MB.
	MemBytes uint32
	// CPUs is the number of logical CPUs (interrupt dispatch contexts);
	// 0 or 1 means the classic uniprocessor machine.
	CPUs int
}

// Machine is one simulated PC: memory, an interrupt controller, a device
// bus, a timer, and two serial ports.
type Machine struct {
	Name string
	Mem  *PhysMem
	Intr *IntrController
	Bus  *Bus
	// Timer raises IRQ 0.
	Timer *Timer
	// Com1 and Com2 raise IRQ 4 and IRQ 3 respectively.
	Com1, Com2 *SerialPort

	nextNIC  int
	nextDisk int
}

// CPUs reports the number of logical CPUs the machine was powered on with.
func (m *Machine) CPUs() int { return m.Intr.NumCPUs() }

// Standard IRQ line assignments (PC-style).
const (
	IRQTimer = 0
	IRQCom2  = 3
	IRQCom1  = 4
	IRQNIC0  = 9
	IRQNIC1  = 10
	IRQDisk0 = 14
	IRQDisk1 = 15
)

// NewMachine powers on a machine: memory is zeroed, the interrupt
// controller's dispatcher is running with every line masked, devices are
// idle.
func NewMachine(cfg Config) *Machine {
	if cfg.MemBytes == 0 {
		cfg.MemBytes = 32 << 20
	}
	if cfg.CPUs < 1 {
		cfg.CPUs = 1
	}
	m := &Machine{
		Name: cfg.Name,
		Mem:  NewPhysMem(cfg.MemBytes),
		Intr: NewIntrControllerCPUs(cfg.CPUs),
		Bus:  &Bus{},
	}
	m.Timer = NewTimer(m.Intr, IRQTimer)
	m.Com1 = NewSerialPort(m.Intr, IRQCom1)
	m.Com2 = NewSerialPort(m.Intr, IRQCom2)
	m.Bus.Add(BusDevice{Name: "com1", Vendor: VendorMisc, Device: DevSerial, IRQ: IRQCom1, HW: m.Com1})
	m.Bus.Add(BusDevice{Name: "com2", Vendor: VendorMisc, Device: DevSerial, IRQ: IRQCom2, HW: m.Com2})
	return m
}

// AttachNIC creates a NIC on a new port of sw and registers it on the
// bus.  model selects the (vendor, device) ID pair drivers probe for.
func (m *Machine) AttachNIC(sw *EtherSwitch, mac [6]byte, model NICModel) *NIC {
	irq := IRQNIC0 + m.nextNIC
	if m.nextNIC >= 2 {
		panic("hw: too many NICs")
	}
	n := NewNIC(m.Intr, irq, mac)
	sw.Attach(n)
	name := fmt.Sprintf("nic%d", m.nextNIC)
	m.nextNIC++
	m.Bus.Add(BusDevice{Name: name, Vendor: model.Vendor, Device: model.Device, IRQ: irq, HW: n})
	return n
}

// AttachDisk registers a disk on the bus.
func (m *Machine) AttachDisk(d *Disk) *Disk {
	irq := IRQDisk0 + m.nextDisk
	if m.nextDisk >= 2 {
		panic("hw: too many disks")
	}
	d.connect(m.Intr, irq)
	name := fmt.Sprintf("hd%d", m.nextDisk)
	m.nextDisk++
	m.Bus.Add(BusDevice{Name: name, Vendor: VendorMisc, Device: DevIDE, IRQ: irq, HW: d})
	return d
}

// Halt powers the machine off: the timer stops and the interrupt
// dispatcher exits.  Matching the paper's §6.2.10 deficiency, no device
// cleanup is performed — an OSKit application that "exits" just reboots.
func (m *Machine) Halt() {
	m.Timer.Stop()
	for _, d := range m.Bus.Devices() {
		if disk, ok := d.HW.(*Disk); ok {
			disk.stop()
		}
	}
	m.Intr.stop()
}

// Device ID constants used by the simulated bus.
const (
	VendorRealtek = 0x10ec // "sne2k" NIC model
	Vendor3Com    = 0x10b7 // "s3c59x" NIC model
	VendorMisc    = 0x1af4

	DevNE2K   = 0x8029
	Dev3C59X  = 0x5950
	DevSerial = 0x0003
	DevIDE    = 0x0010
)

// NICModel identifies which simulated NIC silicon a machine carries, hence
// which donor driver will claim it at probe time.
type NICModel struct {
	Vendor, Device uint16
}

// The two NIC models the donor Linux drivers support.
var (
	ModelNE2K  = NICModel{VendorRealtek, DevNE2K}
	Model3C59X = NICModel{Vendor3Com, Dev3C59X}
)
