// ttcp: the paper's Table 1 benchmark — TCP bandwidth measured between
// two machines with Chesapeake's Test TCP (§5).
//
// The original transferred 131072 × 4096-byte blocks (512 MB) between
// two Pentium Pro 200 MHz PCs on 100 Mbps Ethernet, comparing three
// systems: Linux 2.0.29, FreeBSD 2.1.5, and the OSKit running the
// FreeBSD 2.1.5 protocol stack over the Linux 2.0.29 device drivers.
// This program reproduces the comparison on the simulated platform: a
// system's send path is isolated by running it as the sender against a
// fixed FreeBSD peer, and its receive path likewise.
//
// Run:  go run ./examples/ttcp [-blocks N] [-blocksize N] [-config all|linux|freebsd|oskit]
//
// With -faults the run repeats under a deterministic fault plan (for
// example -faults "seed=2 wire.drop=0.2 wire.burst=4"): TCP still
// delivers the full stream, just slower, and the injected-fault count
// is printed after each run.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"oskit/internal/evalrig"
	"oskit/internal/faults"
)

var faultPlan *faults.Plan
var rigOpts evalrig.Options

func main() {
	blocks := flag.Int("blocks", 4096, "number of blocks to stream (paper: 131072)")
	blockSize := flag.Int("blocksize", 4096, "block size in bytes (paper: 4096)")
	config := flag.String("config", "all", "configuration: all, linux, freebsd, oskit")
	showStats := flag.Bool("stats", false, "print each system's kernel-statistics table after its run")
	faultSpec := flag.String("faults", "", `fault plan, e.g. "seed=2 wire.drop=0.2 wire.burst=4" (see internal/faults)`)
	fastPath := flag.Bool("fastpath", false, "boot OSKit nodes with the opt-in fast-path send configuration (E11: scatter-gather xmit + QuickPool)")
	cpus := flag.Int("cpus", 1, "logical CPUs per machine; the exclusion discipline is the same on every size (E14)")
	flag.Parse()
	rigOpts.FastPath = *fastPath
	rigOpts.CPUs = *cpus

	if *faultSpec != "" {
		plan, err := faults.ParsePlan(*faultSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ttcp: -faults: %v\n", err)
			os.Exit(2)
		}
		faultPlan = &plan
		fmt.Printf("fault plan: %s\n", plan.String())
	}

	configs := evalrig.Configs
	if *config != "all" {
		configs = []evalrig.Config{evalrig.Config(*config)}
	}

	fmt.Printf("ttcp: %d blocks x %d bytes = %.1f MB per run\n\n",
		*blocks, *blockSize, float64(*blocks**blockSize)/1e6)
	fmt.Printf("%-10s %14s %14s\n", "system", "send (Mb/s)", "recv (Mb/s)")

	port := uint16(5100)
	for _, cfg := range configs {
		send, err := measure(cfg, evalrig.FreeBSD, *blocks, *blockSize, port, *showStats)
		port++
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s as sender: %v\n", cfg, err)
			os.Exit(1)
		}
		recv, err := measureRecv(evalrig.FreeBSD, cfg, *blocks, *blockSize, port, *showStats)
		port++
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s as receiver: %v\n", cfg, err)
			os.Exit(1)
		}
		fmt.Printf("%-10s %14.1f %14.1f\n", cfg, send, recv)
	}
	fmt.Println("\n(Table 1 shape: OSKit receives about as fast as FreeBSD — the Linux")
	fmt.Println("driver hands up contiguous buffers that map into mbuf clusters without")
	fmt.Println("copying — while OSKit send pays an extra copy flattening mbuf chains")
	fmt.Println("into contiguous skbuffs.)")
}

func measure(sender, receiver evalrig.Config, blocks, blockSize int, port uint16, showStats bool) (float64, error) {
	p, err := evalrig.NewMixedPairOpts(sender, receiver, time.Millisecond, rigOpts)
	if err != nil {
		return 0, err
	}
	defer p.Halt()
	enableFaults(p)
	res, err := evalrig.TTCP(p, blocks, blockSize, port)
	if err != nil {
		return 0, err
	}
	reportFaults(p)
	if showStats {
		fmt.Printf("\n--- %s sender statistics (nonzero) ---\n", sender)
		p.Sender.WriteStats(os.Stdout)
		fmt.Println()
	}
	return res.SendMbps(), nil
}

// enableFaults arms the pair with the -faults plan, if one was given.
func enableFaults(p *evalrig.Pair) {
	if faultPlan != nil {
		p.EnableFaults(*faultPlan)
	}
}

// reportFaults prints what the injector actually did to the run.
func reportFaults(p *evalrig.Pair) {
	if p.Faults != nil {
		fmt.Printf("  (faults injected: %d)\n", p.Faults.FaultsInjected())
	}
}

func measureRecv(sender, receiver evalrig.Config, blocks, blockSize int, port uint16, showStats bool) (float64, error) {
	p, err := evalrig.NewMixedPairOpts(sender, receiver, time.Millisecond, rigOpts)
	if err != nil {
		return 0, err
	}
	defer p.Halt()
	enableFaults(p)
	res, err := evalrig.TTCP(p, blocks, blockSize, port)
	if err != nil {
		return 0, err
	}
	reportFaults(p)
	if showStats {
		fmt.Printf("\n--- %s receiver statistics (nonzero) ---\n", receiver)
		p.Receiver.WriteStats(os.Stdout)
		fmt.Println()
	}
	return res.RecvMbps(), nil
}
