package linuxnet

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"oskit/internal/com"
	"oskit/internal/faults"
	"oskit/internal/hw"
	"oskit/internal/kern"
	linuxdev "oskit/internal/linux/dev"
)

// bootLinuxGlue is bootLinux, but hands back the donor glue so the test
// can reach the kmalloc fault hook underneath the stack.
func bootLinuxGlue(t *testing.T, sw *hw.EtherSwitch, mac byte, ip [4]byte) (*Stack, *linuxdev.Glue) {
	t.Helper()
	m := hw.NewMachine(hw.Config{Name: "linux-faulty", MemBytes: 32 << 20})
	t.Cleanup(m.Halt)
	m.AttachNIC(sw, [6]byte{2, 0, 0, 1, 0, mac}, hw.ModelNE2K)
	k, err := kern.Setup(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	lk, devs := linuxdev.ProbeNative(k.Env)
	if len(devs) != 1 {
		t.Fatalf("native probe found %d devices", len(devs))
	}
	s, err := NewStack(lk, devs[0], ip, nm)
	if err != nil {
		t.Fatal(err)
	}
	m.Timer.Start(time.Millisecond)
	return s, linuxdev.GlueFor(k.Env)
}

// kmTransfer runs one client->server TCP transfer between the stacks
// and reports failure as an error (including a watchdog timeout) so
// callers can decide whether failure is tolerable.
func kmTransfer(a, b *Stack, port uint16, payload []byte, limit time.Duration) error {
	fa, fb := a.SocketFactory(), b.SocketFactory()
	defer fa.Release()
	defer fb.Release()

	ls, err := fb.CreateSocket(com.AFInet, com.SockStream, 0)
	if err != nil {
		return err
	}
	defer ls.Close()
	if err := ls.Bind(laddr(ipB, port)); err != nil {
		return err
	}
	if err := ls.Listen(2); err != nil {
		return err
	}
	got := make(chan []byte, 1)
	go func() {
		cs, _, err := ls.Accept()
		if err != nil {
			got <- nil
			return
		}
		var all []byte
		buf := make([]byte, 4096)
		for {
			n, err := cs.Read(buf)
			if err != nil || n == 0 {
				break
			}
			all = append(all, buf[:n]...)
		}
		_ = cs.Close()
		got <- all
	}()

	done := make(chan error, 1)
	go func() {
		cs, err := fa.CreateSocket(com.AFInet, com.SockStream, 0)
		if err != nil {
			done <- err
			return
		}
		defer cs.Close()
		if err := cs.Connect(laddr(ipB, port)); err != nil {
			done <- fmt.Errorf("connect: %w", err)
			return
		}
		if n, err := cs.Write(payload); err != nil || int(n) != len(payload) {
			done <- fmt.Errorf("write = %d, %v", n, err)
			return
		}
		done <- cs.Shutdown(com.ShutWrite)
	}()

	watchdog := time.After(limit)
	select {
	case err := <-done:
		if err != nil {
			return err
		}
	case <-watchdog:
		return fmt.Errorf("transfer wedged after %v", limit)
	}
	select {
	case all := <-got:
		if !bytes.Equal(all, payload) {
			return fmt.Errorf("server got %d bytes, want %d", len(all), len(payload))
		}
		return nil
	case <-watchdog:
		return fmt.Errorf("server side wedged after %v", limit)
	}
}

// The Linux stack under injected kmalloc exhaustion: skb allocation
// failures must degrade the transfer gracefully (Go-Back-N recovers
// from the drops, or the socket layer surfaces an error) — never panic
// or wedge — and once the hook is removed the same stacks must carry a
// clean transfer byte-exact.
func TestLinuxKmallocFaultDegradation(t *testing.T) {
	sw := hw.NewEtherSwitch()
	a, glueA := bootLinuxGlue(t, sw, 7, ipA)
	b := bootLinux(t, sw, 8, ipB)

	plan := faults.Plan{Seed: 9, AllocFailNth: 1, AllocRate: 0.02}
	in := faults.NewInjector(plan)
	glueA.SetKmallocFaultHook(in.AllocFailFunc("kmalloc.linux"))

	payload := bytes.Repeat([]byte("hostile kmalloc "), 2048) // 32 KiB
	if err := kmTransfer(a, b, 7300, payload, 60*time.Second); err != nil {
		t.Logf("transfer degraded gracefully under kmalloc faults: %v", err)
	}
	if got := in.Point("kmalloc.linux").Injected(); got == 0 {
		t.Error("no kmalloc faults injected (alloc.nth=1 should always fire)")
	} else {
		t.Logf("injected %d kmalloc failures (plan %q)", got, in.FaultPlan())
	}

	// The regime ends; the stack must not have been damaged by it.
	glueA.SetKmallocFaultHook(nil)
	if err := kmTransfer(a, b, 7301, payload, 60*time.Second); err != nil {
		t.Fatalf("clean transfer after fault regime: %v", err)
	}
}
