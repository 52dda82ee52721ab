package netbsdfs

import (
	"bytes"
	"testing"

	"oskit/internal/com"
	"oskit/internal/diskpart"
)

// TestTwoFSOneDisk mounts two FFS on two MBR partitions of one device:
// the partitions isolate them (each mount sees only its own entries),
// and both come back with their data after Unmount.
func TestTwoFSOneDisk(t *testing.T) {
	g := testGlue(t)
	disk := com.NewMemBuf(make([]byte, 8<<20))
	defer disk.Release()
	if err := diskpart.WriteMBR(disk, []diskpart.MBREntry{
		{Type: diskpart.TypeBSD, StartLBA: 64, Sectors: 8000},
		{Type: diskpart.TypeBSD, StartLBA: 8256, Sectors: 8000},
	}); err != nil {
		t.Fatal(err)
	}
	parts, err := diskpart.ReadPartitions(disk)
	if err != nil || len(parts) != 2 {
		t.Fatalf("parts = %+v, %v", parts, err)
	}
	names := []string{"left", "right"}
	vols := make([]com.BlkIO, 2)
	for i := range vols {
		vols[i] = diskpart.Open(disk, parts[i])
		defer vols[i].Release()
		if err := Mkfs(vols[i], 0); err != nil {
			t.Fatal(err)
		}
	}
	contents := func(i int) []byte { return bytes.Repeat([]byte(names[i]), 1000) }

	// check holds mount i to exactly its own two entries and its data.
	check := func(fs *FFS, i int) {
		t.Helper()
		root, _ := fs.GetRoot()
		defer root.Release()
		ents, err := root.ReadDir(0, 0)
		if err != nil || len(ents) != 2 || ents[0].Name != names[i] || ents[1].Name != names[i]+".dat" {
			t.Fatalf("%s sees %+v, %v", names[i], ents, err)
		}
		f, err := root.Lookup(names[i] + ".dat")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Release()
		got := make([]byte, len(contents(i)))
		for off := uint64(0); off < uint64(len(got)); {
			n, err := f.ReadAt(got[off:], off)
			if err != nil || n == 0 {
				t.Fatalf("%s read: %d, %v", names[i], n, err)
			}
			off += uint64(n)
		}
		if !bytes.Equal(got, contents(i)) {
			t.Fatalf("%s: data corrupted", names[i])
		}
		if errs := fs.Fsck(); len(errs) != 0 {
			t.Fatalf("%s fsck: %v", names[i], errs)
		}
	}

	// Both mounted at once, each given the same client calls.
	mounts := make([]*FFS, 2)
	for i, vol := range vols {
		if mounts[i], err = Mount(g, vol); err != nil {
			t.Fatal(err)
		}
		root, _ := mounts[i].GetRoot()
		if err := root.Mkdir(names[i], 0o755); err != nil {
			t.Fatalf("%s mkdir: %v", names[i], err)
		}
		f, err := root.Create(names[i]+".dat", 0o644, true)
		if err != nil {
			t.Fatalf("%s create: %v", names[i], err)
		}
		if _, err := f.WriteAt(contents(i), 0); err != nil {
			t.Fatalf("%s write: %v", names[i], err)
		}
		f.Release()
		root.Release()
	}
	for i, fs := range mounts {
		check(fs, i)
	}
	for _, fs := range mounts {
		if err := fs.Unmount(); err != nil {
			t.Fatal(err)
		}
	}

	// Persistence across the shared platter.
	for i, vol := range vols {
		fs, err := Mount(g, vol)
		if err != nil {
			t.Fatalf("%s remount: %v", names[i], err)
		}
		check(fs, i)
		if err := fs.Unmount(); err != nil {
			t.Fatal(err)
		}
	}
}
