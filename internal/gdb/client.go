package gdb

import (
	"fmt"

	"oskit/internal/kern"
)

// Client is a minimal GDB-side implementation of the remote serial
// protocol, playing the role of the developer's GDB on the other machine
// of §3.5.  The kit ships it so the stub can be exercised end to end in
// tests and so headless tools can poke a stopped kernel.
type Client struct {
	port rw
}

// NewClient speaks the protocol over any byte transport (normally the
// host end of a simulated serial line).
func NewClient(port rw) *Client { return &Client{port: port} }

// WaitStop blocks until the target reports a stop, returning the signal
// number from the S/T packet.
func (c *Client) WaitStop() (int, error) {
	pkt, err := readPacketFrom(c.port, true)
	if err != nil {
		return 0, err
	}
	return parseStop(pkt)
}

func parseStop(pkt string) (int, error) {
	if len(pkt) < 3 || (pkt[0] != 'S' && pkt[0] != 'T') {
		return 0, fmt.Errorf("gdb: not a stop packet: %q", pkt)
	}
	hi, e1 := unhex(pkt[1])
	lo, e2 := unhex(pkt[2])
	if e1 != nil || e2 != nil {
		return 0, fmt.Errorf("gdb: bad stop packet: %q", pkt)
	}
	return int(hi<<4 | lo), nil
}

// roundTrip sends one command and returns the reply payload.
func (c *Client) roundTrip(cmd string) (string, error) {
	if err := writePacketTo(c.port, cmd, true); err != nil {
		return "", err
	}
	return readPacketFrom(c.port, true)
}

// HaltReason re-queries why the target is stopped ('?').
func (c *Client) HaltReason() (int, error) {
	pkt, err := c.roundTrip("?")
	if err != nil {
		return 0, err
	}
	return parseStop(pkt)
}

// ReadRegs fetches the register file in kern.TrapFrame GDB order.
func (c *Client) ReadRegs() ([kern.NumRegs]uint32, error) {
	var regs [kern.NumRegs]uint32
	pkt, err := c.roundTrip("g")
	if err != nil {
		return regs, err
	}
	if len(pkt) < kern.NumRegs*8 {
		return regs, fmt.Errorf("gdb: short g reply: %q", pkt)
	}
	for i := 0; i < kern.NumRegs; i++ {
		v, err := parseHex32LE(pkt[i*8 : (i+1)*8])
		if err != nil {
			return regs, err
		}
		regs[i] = v
	}
	return regs, nil
}

// WriteReg stores one register by GDB index ('P' packet).
func (c *Client) WriteReg(index int, value uint32) error {
	val := appendHex32LE(nil, value)
	reply, err := c.roundTrip(fmt.Sprintf("P%x=%s", index, val))
	if err != nil {
		return err
	}
	if reply != "OK" {
		return fmt.Errorf("gdb: WriteReg: %q", reply)
	}
	return nil
}

// ReadMem reads n bytes of target memory at addr.
func (c *Client) ReadMem(addr uint32, n uint32) ([]byte, error) {
	pkt, err := c.roundTrip(fmt.Sprintf("m%x,%x", addr, n))
	if err != nil {
		return nil, err
	}
	if len(pkt) > 0 && pkt[0] == 'E' {
		return nil, fmt.Errorf("gdb: ReadMem: %s", pkt)
	}
	out := make([]byte, len(pkt)/2)
	for i := range out {
		hi, e1 := unhex(pkt[2*i])
		lo, e2 := unhex(pkt[2*i+1])
		if e1 != nil || e2 != nil {
			return nil, fmt.Errorf("gdb: bad hex in m reply")
		}
		out[i] = hi<<4 | lo
	}
	return out, nil
}

// WriteMem stores bytes into target memory.
func (c *Client) WriteMem(addr uint32, data []byte) error {
	hex := make([]byte, 0, len(data)*2)
	for _, b := range data {
		hex = append(hex, hexDigits[b>>4], hexDigits[b&0xf])
	}
	reply, err := c.roundTrip(fmt.Sprintf("M%x,%x:%s", addr, len(data), hex))
	if err != nil {
		return err
	}
	if reply != "OK" {
		return fmt.Errorf("gdb: WriteMem: %q", reply)
	}
	return nil
}

// SetBreakpoint plants a software breakpoint at addr.
func (c *Client) SetBreakpoint(addr uint32) error {
	reply, err := c.roundTrip(fmt.Sprintf("Z0,%x,1", addr))
	if err != nil {
		return err
	}
	if reply != "OK" {
		return fmt.Errorf("gdb: SetBreakpoint: %q", reply)
	}
	return nil
}

// ClearBreakpoint removes a breakpoint.
func (c *Client) ClearBreakpoint(addr uint32) error {
	reply, err := c.roundTrip(fmt.Sprintf("z0,%x,1", addr))
	if err != nil {
		return err
	}
	if reply != "OK" {
		return fmt.Errorf("gdb: ClearBreakpoint: %q", reply)
	}
	return nil
}

// Continue resumes the target and blocks until the next stop.
func (c *Client) Continue() (int, error) {
	if err := writePacketTo(c.port, "c", true); err != nil {
		return 0, err
	}
	return c.WaitStop()
}

// Step single-steps the target and blocks until it stops again.
func (c *Client) Step() (int, error) {
	if err := writePacketTo(c.port, "s", true); err != nil {
		return 0, err
	}
	return c.WaitStop()
}

// Kill terminates the target (no reply is defined).
func (c *Client) Kill() error {
	return writePacketTo(c.port, "k", true)
}
