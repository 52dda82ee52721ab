// oskit-churn: the E13 workload as a command — boot an N-node switched
// cluster (one server, N-1 load generators), drive connect/request/close
// churn at the server, and print the north-star-shaped numbers:
// connections/sec, p50/p99 latency, and the concurrent-connection
// ceiling.
//
// Run:  go run ./cmd/oskit-churn [-nodes N] [-conns N] [-workers N]
//
// With -faults the churn runs under a deterministic fault plan (for
// example -faults "seed=3 wire.corrupt=0.05 nic.overflow=0.05"): every
// cycle must still complete with its echo verified — TCP absorbs the
// hostility — and the injected-fault count is printed.
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
	nodes := flag.Int("nodes", 5, "cluster size: one server plus nodes-1 generators")
	conns := flag.Int("conns", 512, "total connect/request/close cycles")
	workers := flag.Int("workers", 4, "concurrent workers per generator node")
	reqBytes := flag.Int("reqbytes", 512, "request size in bytes (echoed back)")
	ceiling := flag.Int("ceiling", 0, "also measure the concurrent-connection ceiling up to this target (0 skips)")
	seed := flag.Int64("seed", 7, "payload seed (same seed + conns = same checksum)")
	config := flag.String("config", "oskit", "configuration: linux, freebsd, oskit")
	faultSpec := flag.String("faults", "", `fault plan, e.g. "seed=3 wire.corrupt=0.05" (see internal/faults)`)
	showStats := flag.Bool("stats", false, "print the server node's kernel-statistics table after the run")
	cpus := flag.Int("cpus", 1, "logical CPUs per machine; the exclusion discipline is the same on every size (E14)")
	flag.Parse()

	c, err := evalrig.NewCluster(evalrig.Config(*config), *nodes, 250*time.Microsecond, evalrig.Options{CPUs: *cpus})
	if err != nil {
		fmt.Fprintf(os.Stderr, "oskit-churn: %v\n", err)
		os.Exit(1)
	}
	defer c.Halt()

	var in *faults.Injector
	if *faultSpec != "" {
		plan, err := faults.ParsePlan(*faultSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "oskit-churn: -faults: %v\n", err)
			os.Exit(2)
		}
		in = c.EnableFaults(plan)
		fmt.Printf("fault plan: %s\n", plan.String())
	}

	fmt.Printf("churn: %d cycles x %d B over %d generators x %d workers at one server\n",
		*conns, *reqBytes, *nodes-1, *workers)
	res, err := evalrig.ChurnTCP(c, evalrig.ChurnOptions{
		Conns: *conns, Workers: *workers, ReqBytes: *reqBytes, Port: 9100, Seed: *seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "oskit-churn: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\n%-24s %d\n", "completed", res.Conns)
	fmt.Printf("%-24s %d\n", "failed", res.Failed)
	fmt.Printf("%-24s %.1f\n", "connections/sec", res.ConnsPerSec)
	fmt.Printf("%-24s %.0f\n", "p50 latency (us)", res.P50Usec)
	fmt.Printf("%-24s %.0f\n", "p99 latency (us)", res.P99Usec)
	fmt.Printf("%-24s %08x\n", "checksum", res.CheckSum)
	if in != nil {
		fmt.Printf("%-24s %d\n", "faults injected", in.FaultsInjected())
	}
	if v, ok := c.Server().Stat("freebsd_net", "tcp.accept_overflows"); ok {
		fmt.Printf("%-24s %d\n", "accept overflows", v)
	}
	if v, ok := c.Server().Stat("freebsd_net", "tcp.timewait_recycled"); ok {
		fmt.Printf("%-24s %d\n", "TIME_WAIT recycled", v)
	}

	if *ceiling > 0 {
		held, err := evalrig.ConcurrentCeiling(c, *ceiling, 9101)
		if err != nil {
			fmt.Fprintf(os.Stderr, "oskit-churn: ceiling: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%-24s %d of %d\n", "concurrent ceiling", held, *ceiling)
	}
	if *showStats {
		fmt.Println("\nserver node statistics:")
		c.Server().WriteStats(os.Stdout)
	}
	if res.Failed != 0 {
		os.Exit(1)
	}
}
