package netbsdfs

import (
	"bytes"
	"testing"

	"oskit/internal/com"
	"oskit/internal/dev"
	"oskit/internal/diskpart"
	bsdglue "oskit/internal/freebsd/glue"
	"oskit/internal/hw"
	"oskit/internal/kern"
	linuxdev "oskit/internal/linux/dev"
)

// TestFFSOverIDEAndPartition is the full §4.2.2 run-time binding chain:
// NetBSD-derived FS -> partition view -> donor Linux IDE driver ->
// simulated disk, every joint a COM BlkIO, no link-time dependencies.
// The FS blocks inside the driver (donor sleep through two components'
// glue) with its component lock released across the device call.
func TestFFSOverIDEAndPartition(t *testing.T) {
	m := hw.NewMachine(hw.Config{MemBytes: 32 << 20})
	defer m.Halt()
	m.AttachDisk(hw.NewDisk(16384)) // 8 MB
	k, err := kern.Setup(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	fw := dev.NewFramework(k.Env)
	linuxdev.InitIDE(fw)
	fw.Probe()
	disks := fw.LookupByIID(com.BlkIOIID)
	if len(disks) != 1 {
		t.Fatal("no IDE device")
	}
	raw := disks[0].(com.BlkIO)
	defer raw.Release()

	if err := diskpart.WriteMBR(raw, []diskpart.MBREntry{
		{Type: diskpart.TypeBSD, StartLBA: 64, Sectors: 16000},
	}); err != nil {
		t.Fatal(err)
	}
	if err := diskpart.WriteDisklabel(raw, 64*512, []diskpart.LabelEntry{
		{Offset: 16, Sectors: 15000, FSType: 7},
	}); err != nil {
		t.Fatal(err)
	}
	parts, err := diskpart.ReadPartitions(raw)
	if err != nil {
		t.Fatal(err)
	}
	var ffsPart diskpart.Partition
	for _, p := range parts {
		if p.Name == "s1a" {
			ffsPart = p
		}
	}
	if ffsPart.Size == 0 {
		t.Fatalf("no s1a in %+v", parts)
	}
	vol := diskpart.Open(raw, ffsPart)
	defer vol.Release()

	if err := Mkfs(vol, 0); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(bsdglue.New(k.Env), vol)
	if err != nil {
		t.Fatal(err)
	}
	root, _ := fs.GetRoot()
	defer root.Release()
	f, err := root.Create("ondisk", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("through four components "), 2048) // 48 KiB
	if _, err := f.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	f.Release()
	if errs := fs.Fsck(); len(errs) != 0 {
		t.Fatalf("fsck: %v", errs)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}

	// Remount and verify: the bytes really crossed the driver onto the
	// simulated platter inside the partition.
	fs2, err := Mount(bsdglue.New(k.Env), vol)
	if err != nil {
		t.Fatal(err)
	}
	root2, _ := fs2.GetRoot()
	defer root2.Release()
	f2, err := root2.Lookup("ondisk")
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Release()
	got := make([]byte, len(payload))
	var off uint64
	for off < uint64(len(payload)) {
		n, err := f2.ReadAt(got[off:], off)
		if err != nil || n == 0 {
			t.Fatalf("ReadAt: %d, %v", n, err)
		}
		off += uint64(n)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("data corrupted crossing components")
	}
}
