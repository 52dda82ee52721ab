// rtcp: the paper's Table 2 benchmark — the time required for a 1-byte
// TCP round trip, measured with the latency companion the authors wrote
// for ttcp (similar to hbench's lat_tcp, §5).
//
// The paper's finding: the OSKit imposes significant latency overhead
// over FreeBSD — not from data copies (1-byte packets fit a single mbuf
// and map cleanly into an skbuff) but from "the additional glue code
// within the OSKit components: the price we pay for modularity and
// separability and for the ability to use existing driver and networking
// code unmodified in an environment for which they were not designed."
//
// Run:  go run ./examples/rtcp [-rounds N] [-config all|linux|freebsd|oskit]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"oskit/internal/evalrig"
	"oskit/internal/faults"
)

func main() {
	rounds := flag.Int("rounds", 5000, "round trips to time")
	config := flag.String("config", "all", "configuration: all, linux, freebsd, oskit")
	showStats := flag.Bool("stats", false, "print each system's kernel-statistics table after its run")
	faultSpec := flag.String("faults", "", `fault plan, e.g. "seed=3 wire.corrupt=0.05 timer.jitter=0.1" (see internal/faults)`)
	fastPath := flag.Bool("fastpath", false, "boot OSKit nodes with the opt-in fast-path send configuration (E11: scatter-gather xmit + QuickPool)")
	cpus := flag.Int("cpus", 1, "logical CPUs per machine; the exclusion discipline is the same on every size (E14)")
	flag.Parse()

	var faultPlan *faults.Plan
	if *faultSpec != "" {
		plan, err := faults.ParsePlan(*faultSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rtcp: -faults: %v\n", err)
			os.Exit(2)
		}
		faultPlan = &plan
		fmt.Printf("fault plan: %s\n", plan.String())
	}

	configs := evalrig.Configs
	if *config != "all" {
		configs = []evalrig.Config{evalrig.Config(*config)}
	}

	fmt.Printf("rtcp: %d one-byte round trips per run\n\n", *rounds)
	fmt.Printf("%-10s %18s\n", "system", "round trip (usec)")
	port := uint16(5300)
	for _, cfg := range configs {
		p, err := evalrig.NewPairOpts(cfg, time.Millisecond, evalrig.Options{FastPath: *fastPath, CPUs: *cpus})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if faultPlan != nil {
			p.EnableFaults(*faultPlan)
		}
		usec, err := evalrig.RTCP(p, *rounds, port)
		if err == nil && p.Faults != nil {
			fmt.Printf("  (faults injected: %d)\n", p.Faults.FaultsInjected())
		}
		if err == nil && *showStats {
			fmt.Printf("\n--- %s client statistics (nonzero) ---\n", cfg)
			p.Sender.WriteStats(os.Stdout)
			fmt.Println()
		}
		p.Halt()
		port++
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", cfg, err)
			os.Exit(1)
		}
		fmt.Printf("%-10s %18.2f\n", cfg, usec)
	}
	fmt.Println("\n(Table 2 shape: the OSKit's round trip exceeds FreeBSD's; the gap is")
	fmt.Println("glue dispatch, not copies — one byte maps without copying either way.)")
}
