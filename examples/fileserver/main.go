// fileserver: the secure file server of paper §3.8, surfaced as an
// HTTP/1.1 static server (E15).
//
// The kit's file system exports COM interfaces of VFS granularity whose
// Lookup accepts only *single pathname components* — fine enough that a
// security wrapper can check permissions on every step without touching
// the file system internals.  The server then exports an interface
// accepting *full pathnames*, "providing efficiency where it matters,
// between processes."  Here that interface is the wire protocol itself:
// an HTTP/1.1 request's path walks the wrapper component by component
// (anything named "secret*" answers 403 to the unprivileged service),
// and the response body travels libc.Sendfile — on the fast-path
// configuration, buffer-cache pages pinned straight into the NIC's
// gather engine, zero payload copies end to end.
//
// The rig is a switched cluster: the server machine carries an IDE disk
// with an FFS, the generator machines GET seed-derived files over
// keep-alive connections and CRC-verify every body.
//
// Run:  go run ./examples/fileserver [-config oskit|linux|freebsd]
//
//	[-requests N] [-filebytes N] [-stats] [-faults PLAN]
//	[-fastpath] [-cpus N]
//
// With -faults the wire, rings, clock, memory services, and the disk
// run under a deterministic fault plan (for example -faults "seed=7
// wire.drop=0.05 disk.err=0.02") once setup is done: bodies still
// verify, just slower, and the injected-fault count is printed.  With
// -fastpath the OSKit configuration boots the full E11/E12/E15 opt-in
// path; with -cpus N > 1 the BSD-stack nodes run the E14 SMP
// discipline.
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
	config := flag.String("config", "oskit", "configuration: oskit, linux, freebsd")
	requests := flag.Int("requests", 64, "total GET requests across the generators")
	fileBytes := flag.Int("filebytes", 32768, "size of each served file")
	files := flag.Int("files", 4, "number of distinct files served round-robin")
	showStats := flag.Bool("stats", false, "print the server machine's kernel-statistics table before shutdown")
	faultSpec := flag.String("faults", "", `fault plan, e.g. "seed=7 wire.drop=0.05 disk.err=0.02" (see internal/faults)`)
	fastPath := flag.Bool("fastpath", false, "boot OSKit nodes with the opt-in fast path (E11/E12 + E15 zero-copy sendfile)")
	cpus := flag.Int("cpus", 1, "logical CPUs per machine; the exclusion discipline is the same on every size (E14): the stack lock on the network path, giant exclusion in the file system")
	flag.Parse()

	var faultPlan *faults.Plan
	if *faultSpec != "" {
		plan, err := faults.ParsePlan(*faultSpec)
		if err != nil {
			fatal("-faults: " + err.Error())
		}
		faultPlan = &plan
		fmt.Printf("fault plan: %s\n", plan.String())
	}

	c, err := evalrig.NewCluster(evalrig.Config(*config), 3, time.Millisecond, evalrig.Options{
		FastPath:    *fastPath,
		CPUs:        *cpus,
		DiskSectors: 16384,
	})
	check(err)
	defer c.Halt()

	opt := evalrig.HTTPOptions{
		Requests:  *requests,
		Workers:   4,
		Files:     *files,
		FileBytes: *fileBytes,
		Seed:      42,
		Probes:    true,
	}

	// Lay the file tree down before the media turns hostile — the same
	// discipline as the rig and the soak harness: setup itself cannot be
	// failed, the serving path is what runs under the plan.
	check(evalrig.PopulateHTTP(c.Server(), opt))
	var injector *faults.Injector
	if faultPlan != nil {
		injector = c.EnableFaults(*faultPlan)
	}

	res, err := evalrig.HTTPGet(c, opt)
	check(err)

	fmt.Printf("fileserver (%s%s): %d requests, %d files x %d bytes\n",
		*config, suffix(*fastPath, *cpus), *requests, *files, *fileBytes)
	fmt.Printf("  answered    %d (probes included: 403 on /secrets, 404 on misses)\n", res.Requests)
	fmt.Printf("  failed      %d\n", res.Failed)
	fmt.Printf("  body bytes  %d (every 200 body CRC-verified)\n", res.BytesBody)
	fmt.Printf("  rate        %.0f req/s, p50 %.0f us, p99 %.0f us\n", res.ReqsPerSec, res.P50Usec, res.P99Usec)
	fmt.Printf("  checksum    %08x (seed-deterministic)\n", res.CheckSum)

	stat := func(set, name string) int64 {
		v, _ := c.Server().Stat(set, name)
		return v
	}
	fmt.Printf("  sendfile    %d bytes zero-copy (%d pages pinned), %d bytes copied\n",
		stat("freebsd_net", "sendfile.zc_bytes"),
		stat("freebsd_net", "sendfile.pages_mapped"),
		stat("freebsd_net", "sendfile.bytes_copied"))

	if injector != nil {
		fmt.Printf("  (faults injected: %d)\n", injector.FaultsInjected())
	}
	if *showStats {
		fmt.Println("\n--- server statistics (nonzero) ---")
		c.Server().WriteStats(os.Stdout)
	}
	if res.Failed != 0 {
		for _, e := range res.Errors {
			fmt.Fprintln(os.Stderr, "fileserver:", e)
		}
		fatal(fmt.Sprintf("%d requests failed", res.Failed))
	}
}

func suffix(fastPath bool, cpus int) string {
	s := ""
	if fastPath {
		s += ", fastpath"
	}
	if cpus > 1 {
		s += fmt.Sprintf(", %d cpus", cpus)
	}
	return s
}

func check(err error) {
	if err != nil {
		fatal(err.Error())
	}
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "fileserver:", msg)
	os.Exit(1)
}
