// oskit-stats boots an evaluation configuration, drives a short ttcp
// transfer across it, and dumps every com.Stats exporter discovered in
// the two machines' services registries — the kit's kstat(1) analog.
//
// This is the observability layer's dump mode: each instrumented
// component (the network stacks, the BSD malloc, the kernel arena, the
// driver glue) registers a named statistics set under com.StatsIID at
// initialization; this tool finds them by dynamic binding alone, with no
// static knowledge of which components the configuration contains.
//
// Run:
//
//	go run ./cmd/oskit-stats [-config oskit] [-blocks N] [-blocksize N]
//	    [-cpus N] [-fastpath] [-all]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"oskit/internal/evalrig"
	"oskit/internal/stats"
)

func main() {
	config := flag.String("config", "oskit", "configuration: linux, freebsd, oskit")
	blocks := flag.Int("blocks", 256, "ttcp blocks to stream before dumping")
	blockSize := flag.Int("blocksize", 4096, "ttcp block size in bytes")
	cpus := flag.Int("cpus", 1, "logical CPUs per machine, stock path or -fastpath; the exclusion discipline is the same on every size (E14)")
	fastPath := flag.Bool("fastpath", false, "boot OSKit nodes with the fast-path send configuration (E11)")
	all := flag.Bool("all", false, "print zero-valued statistics too")
	flag.Parse()

	p, err := evalrig.NewPairOpts(evalrig.Config(*config), time.Millisecond,
		evalrig.Options{FastPath: *fastPath, CPUs: *cpus})
	if err != nil {
		fmt.Fprintln(os.Stderr, "oskit-stats:", err)
		os.Exit(1)
	}
	defer p.Halt()

	if *blocks > 0 {
		if _, err := evalrig.TTCP(p, *blocks, *blockSize, 5700); err != nil {
			fmt.Fprintln(os.Stderr, "oskit-stats: ttcp:", err)
			os.Exit(1)
		}
	}

	for _, node := range []struct {
		role string
		n    *evalrig.Node
	}{{"sender", p.Sender}, {"receiver", p.Receiver}} {
		fmt.Printf("=== %s %s ===\n", *config, node.role)
		writeNode(node.n, !*all)
		fmt.Println()
	}
}

func writeNode(n *evalrig.Node, terse bool) {
	sets := n.Stats()
	defer func() {
		for _, s := range sets {
			s.Release()
		}
	}()
	stats.WriteTable(os.Stdout, sets, terse)
}
