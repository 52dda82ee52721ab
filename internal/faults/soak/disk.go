package soak

import (
	"fmt"
	"hash/crc32"
	"math/rand"

	"oskit/internal/bmfs"
	"oskit/internal/com"
	"oskit/internal/dev"
	"oskit/internal/diskpart"
	"oskit/internal/faults"
	bsdglue "oskit/internal/freebsd/glue"
	"oskit/internal/hw"
	"oskit/internal/kern"
	linuxdev "oskit/internal/linux/dev"
	netbsdfs "oskit/internal/netbsd/fs"
)

// DiskResult is one disk soak's outcome: what the injector did (for
// reproducibility assertions) and how hard the workload had to work.
type DiskResult struct {
	// Injected is the total number of faults fired.
	Injected uint64
	// Trace is the per-point fired-index trace — the run's replayable
	// fault sequence.
	Trace map[string][]uint64
	// Retries counts file-system operations that failed on an injected
	// I/O error and were reattempted.
	Retries int
}

// diskRetryLimit bounds reattempts of one operation.  At the soak
// regimes' error rates the chance of exhausting it is (rate)^limit —
// negligible — so hitting it means the fault plane broke retryability.
const diskRetryLimit = 100

// RunDiskSoak runs an FFS read-write workload over the donor IDE
// driver against a disk injecting errors and torn writes per plan: the
// §4.2.2 component chain (FFS → partition view → IDE → disk) under
// hostile media.  The workload writes `files` files of `payloadLen`
// seed-determined bytes with op-level retries while faults fire, syncs,
// then turns faults off and verifies integrity the hard way: fsck,
// unmount, remount, byte-for-byte compare.  The buffer cache's failure
// contract (failed writeback stays dirty, failed read stays invalid) is
// what makes retries sound; this soak is that contract's proof.
//
// The workload issues disk requests serially, so the injector's
// decision sequence — and therefore the returned Trace — is a pure
// function of the plan.  Two runs of the same plan return identical
// traces, which TestDiskSoakSeedReproducible asserts.
func RunDiskSoak(plan faults.Plan, files, payloadLen int) (*DiskResult, error) {
	res := &DiskResult{}

	m := hw.NewMachine(hw.Config{Name: "disksoak", MemBytes: 32 << 20})
	defer m.Halt()
	disk := hw.NewDisk(16384) // 8 MB
	m.AttachDisk(disk)
	k, err := kern.Setup(m, nil)
	if err != nil {
		return nil, err
	}
	fw := dev.NewFramework(k.Env)
	linuxdev.InitIDE(fw)
	fw.Probe()
	disks := fw.LookupByIID(com.BlkIOIID)
	if len(disks) != 1 {
		return nil, fmt.Errorf("soak: IDE probe found %d disks", len(disks))
	}
	raw := disks[0].(com.BlkIO)
	defer raw.Release()

	if err := diskpart.WriteMBR(raw, []diskpart.MBREntry{
		{Type: diskpart.TypeBSD, StartLBA: 64, Sectors: 16000},
	}); err != nil {
		return nil, err
	}
	if err := diskpart.WriteDisklabel(raw, 64*512, []diskpart.LabelEntry{
		{Offset: 16, Sectors: 15000, FSType: 7},
	}); err != nil {
		return nil, err
	}
	parts, err := diskpart.ReadPartitions(raw)
	if err != nil {
		return nil, err
	}
	var ffsPart diskpart.Partition
	for _, p := range parts {
		if p.Name == "s1a" {
			ffsPart = p
		}
	}
	if ffsPart.Size == 0 {
		return nil, fmt.Errorf("soak: no s1a partition in %+v", parts)
	}
	vol := diskpart.Open(raw, ffsPart)
	defer vol.Release()
	if err := netbsdfs.Mkfs(vol, 0); err != nil {
		return nil, err
	}
	fs, err := netbsdfs.Mount(bsdglue.New(k.Env), vol)
	if err != nil {
		return nil, err
	}

	// Setup is done; from here the media is hostile.  The injector is
	// registered in the machine's registry like any other service, so
	// oskit-stats-style clients would see the regime.
	in := faults.NewInjector(plan)
	defer in.Release()
	k.Env.Registry.Register(com.FaultIID, in)
	k.Env.Registry.Register(com.StatsIID, in.StatsSet())
	disk.SetFaultHook(in.DiskHook("disk"))

	retry := func(what string, op func() error) error {
		for attempt := 0; attempt < diskRetryLimit; attempt++ {
			err := op()
			if err == nil {
				return nil
			}
			if err != com.ErrIO {
				return fmt.Errorf("soak: %s: %w", what, err)
			}
			res.Retries++
		}
		return fmt.Errorf("soak: %s still failing after %d attempts", what, diskRetryLimit)
	}

	// Write phase, faults on.  Content is seed-determined so the verify
	// phase can regenerate it.
	root, err := fs.GetRoot()
	if err != nil {
		return nil, err
	}
	for i := 0; i < files; i++ {
		payload := diskPayload(plan.Seed, i, payloadLen)
		var f com.File
		// Non-exclusive create keeps the retry idempotent: an attempt
		// that failed after entering the directory succeeds as an open
		// on the next try.
		if err := retry("create", func() error {
			var err error
			f, err = root.Create(fileName(i), 0o644, false)
			return err
		}); err != nil {
			root.Release()
			return nil, err
		}
		if err := retry("write", func() error {
			var off uint64
			for off < uint64(len(payload)) {
				n, err := f.WriteAt(payload[off:], off)
				if err != nil {
					return err
				}
				off += uint64(n)
			}
			return nil
		}); err != nil {
			f.Release()
			root.Release()
			return nil, err
		}
		f.Release()
	}
	root.Release()
	// Push the dirty cache through the hostile disk.
	if err := retry("sync", fs.Sync); err != nil {
		return nil, err
	}

	// Verify phase, faults off: the platter must hold exactly what was
	// written, injected errors and torn writes notwithstanding.
	disk.SetFaultHook(nil)
	res.Injected = in.FaultsInjected()
	res.Trace = in.Trace()
	if errs := fs.Fsck(); len(errs) != 0 {
		return nil, fmt.Errorf("soak: fsck after fault run: %v", errs)
	}
	if err := fs.Unmount(); err != nil {
		return nil, err
	}
	fs2, err := netbsdfs.Mount(bsdglue.New(k.Env), vol)
	if err != nil {
		return nil, err
	}
	defer func() { _ = fs2.Unmount() }()
	root2, err := fs2.GetRoot()
	if err != nil {
		return nil, err
	}
	defer root2.Release()
	if err := reread(root2, files, payloadLen, plan.Seed); err != nil {
		return nil, err
	}
	return res, nil
}

// reread is the verify phase of both workloads: every soak file must
// read back byte for byte as the seed-determined content written to it.
func reread(root com.Dir, files, payloadLen int, seed int64) error {
	buf := make([]byte, payloadLen)
	for i := 0; i < files; i++ {
		f, err := root.Lookup(fileName(i))
		if err != nil {
			return fmt.Errorf("soak: %s lost: %w", fileName(i), err)
		}
		var off uint64
		for off < uint64(payloadLen) {
			n, err := f.ReadAt(buf[off:], off)
			if err != nil || n == 0 {
				f.Release()
				return fmt.Errorf("soak: reread %s at %d: %d, %v", fileName(i), off, n, err)
			}
			off += uint64(n)
		}
		f.Release()
		want := crc32.ChecksumIEEE(diskPayload(seed, i, payloadLen))
		if got := crc32.ChecksumIEEE(buf); got != want {
			return fmt.Errorf("soak: %s corrupted: crc %08x, want %08x", fileName(i), got, want)
		}
	}
	return nil
}

// RunBmfsWorkload drives the boot-module RAM file system through the
// same write/reread/verify shape as the disk soak.  bmfs has no device
// underneath — the point of running it inside a fault regime is the
// negative space: a RAM file system must be entirely indifferent to
// disk and wire hostility.
func RunBmfsWorkload(files, payloadLen int, seed int64) error {
	fs := bmfs.New(nil)
	defer fs.Release()
	root, err := fs.GetRoot()
	if err != nil {
		return err
	}
	defer root.Release()
	for i := 0; i < files; i++ {
		payload := diskPayload(seed, i, payloadLen)
		f, err := root.Create(fileName(i), 0o644, true)
		if err != nil {
			return err
		}
		if _, err := f.WriteAt(payload, 0); err != nil {
			f.Release()
			return err
		}
		f.Release()
	}
	return reread(root, files, payloadLen, seed)
}

func fileName(i int) string { return fmt.Sprintf("soak%03d", i) }

// diskPayload is the seed-determined content of one soak file.
func diskPayload(seed int64, file, n int) []byte {
	rng := rand.New(rand.NewSource(seed + int64(file)*7919))
	b := make([]byte, n)
	rng.Read(b)
	return b
}
