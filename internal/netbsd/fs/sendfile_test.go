package netbsdfs

import (
	"bytes"
	"testing"

	"oskit/internal/com"
)

// The file-side sendfile seam (E15): MapFileSG must export exactly the
// asked-for bytes as aliases of the cache's own storage, pin every
// underlying buffer against eviction for the pin object's lifetime,
// and refuse the ranges it cannot export in place.

// sfFile creates /name with the given body and returns its vnode.
func sfFile(t *testing.T, fs *FFS, name string, body []byte) *vnode {
	t.Helper()
	root, err := fs.GetRoot()
	if err != nil {
		t.Fatal(err)
	}
	defer root.Release()
	f, err := root.Create(name, 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) > 0 {
		if n, err := f.WriteAt(body, 0); err != nil || n != uint(len(body)) {
			t.Fatalf("WriteAt = %d, %v", n, err)
		}
	}
	return f.(*vnode)
}

// pinRead concatenates a pin's MapSG fragments.
func pinRead(t *testing.T, p com.SGBufIO, amount uint) []byte {
	t.Helper()
	parts, err := p.MapSG(0, amount)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for _, part := range parts {
		out = append(out, part...)
	}
	return out
}

func TestMapFileSGExportsAndTrims(t *testing.T) {
	fs := mountTest(t, 512)
	body := make([]byte, 3*BlockSize+100)
	for i := range body {
		body[i] = byte(i * 13)
	}
	v := sfFile(t, fs, "data", body)
	defer v.Release()

	// Negotiation: a regular file answers for SendfileIID, and the
	// returned object is the same vnode.
	u, err := v.QueryInterface(com.SendfileIID)
	if err != nil {
		t.Fatalf("SendfileIID on a regular file: %v", err)
	}
	sf := u.(com.Sendfile)
	defer sf.Release()

	cases := []struct{ off, amt uint64 }{
		{0, uint64(len(body))},        // whole file
		{0, 10},                       // head of the first block
		{100, BlockSize},              // block-spanning, trimmed both ends
		{3 * BlockSize, 100},          // the short tail block
		{BlockSize - 1, 2},            // exactly one byte each side of a seam
		{uint64(len(body)) - 1, 1},    // last byte
		{BlockSize, 2*BlockSize + 50}, // aligned start, trimmed end
	}
	for _, c := range cases {
		p, err := sf.MapFileSG(c.off, c.amt)
		if err != nil {
			t.Fatalf("MapFileSG(%d, %d): %v", c.off, c.amt, err)
		}
		if got := pinRead(t, p, uint(c.amt)); !bytes.Equal(got, body[c.off:c.off+c.amt]) {
			t.Errorf("MapFileSG(%d, %d): wrong bytes", c.off, c.amt)
		}
		if n, _ := p.Size(); n != c.amt {
			t.Errorf("MapFileSG(%d, %d): Size = %d", c.off, c.amt, n)
		}
		p.Release()
	}
	if got := fs.cache.gPinned.Load(); got != 0 {
		t.Fatalf("%d buffers still pinned after every pin released", got)
	}
}

func TestMapFileSGRefusals(t *testing.T) {
	fs := mountTest(t, 512)
	body := make([]byte, 2*BlockSize)
	v := sfFile(t, fs, "data", body)
	defer v.Release()

	if _, err := v.MapFileSG(0, 0); err != com.ErrInval {
		t.Errorf("zero amount: %v, want ErrInval", err)
	}
	if _, err := v.MapFileSG(0, uint64(len(body))+1); err != com.ErrInval {
		t.Errorf("past EOF: %v, want ErrInval", err)
	}
	if _, err := v.MapFileSG(^uint64(0)-10, 20); err != com.ErrInval {
		t.Errorf("offset overflow: %v, want ErrInval", err)
	}

	// One call may not pin more than maxPinBlocks of the cache.
	big := sfFile(t, fs, "big", make([]byte, (maxPinBlocks+1)*BlockSize))
	defer big.Release()
	if _, err := big.MapFileSG(0, uint64((maxPinBlocks+1)*BlockSize)); err != com.ErrInval {
		t.Errorf("oversized pin: %v, want ErrInval", err)
	}
	p, err := big.MapFileSG(0, uint64(maxPinBlocks*BlockSize))
	if err != nil {
		t.Fatalf("maximum-size pin refused: %v", err)
	}
	p.Release()

	// Directories do not negotiate the seam at all.
	root, _ := fs.GetRoot()
	defer root.Release()
	if _, err := root.QueryInterface(com.SendfileIID); err != com.ErrNoInterface {
		t.Errorf("SendfileIID on a directory: %v, want ErrNoInterface", err)
	}
	if got := fs.cache.gPinned.Load(); got != 0 {
		t.Fatalf("%d buffers still pinned", got)
	}
}

func TestMapFileSGHoleFailsAndUnwinds(t *testing.T) {
	fs := mountTest(t, 512)
	root, _ := fs.GetRoot()
	defer root.Release()
	f, err := root.Create("sparse", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()
	// Block 0 written, block 1 a hole, block 2 written.
	one := make([]byte, BlockSize)
	for i := range one {
		one[i] = 0xAB
	}
	if _, err := f.WriteAt(one, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(one, 2*BlockSize); err != nil {
		t.Fatal(err)
	}
	v := f.(*vnode)
	// A range touching the hole cannot be exported in place, and it is
	// refused before block 0 is pinned.
	if _, err := v.MapFileSG(0, 2*BlockSize); err != com.ErrIO {
		t.Fatalf("hole range: %v, want ErrIO", err)
	}
	if got := fs.cache.scPins.Load(); got != 0 {
		t.Fatalf("the refused export took %d pins", got)
	}
	// The written blocks each side still export fine.
	p, err := v.MapFileSG(2*BlockSize, BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if got := pinRead(t, p, BlockSize); !bytes.Equal(got, one) {
		t.Error("post-hole block exported wrong bytes")
	}
	p.Release()
}

func TestMapFileSGPinBarsEviction(t *testing.T) {
	fs := mountTest(t, 2048)
	body := make([]byte, 4*BlockSize)
	for i := range body {
		body[i] = byte(i * 31)
	}
	v := sfFile(t, fs, "served", body)
	defer v.Release()
	p, err := v.MapFileSG(0, uint64(len(body)))
	if err != nil {
		t.Fatal(err)
	}

	// Thrash the cache with several times nbufs of other traffic: every
	// unpinned buffer is recycled many times over, but the pinned
	// buffers must be skipped by the victim scan, so the exported
	// fragments keep aliasing the served file's bytes.
	noise := sfFile(t, fs, "noise", make([]byte, 4*nbufs*BlockSize))
	defer noise.Release()
	buf := make([]byte, BlockSize)
	for lbn := 0; lbn < 4*nbufs; lbn++ {
		if _, err := noise.ReadAt(buf, uint64(lbn)*BlockSize); err != nil {
			t.Fatal(err)
		}
	}
	if got := pinRead(t, p, uint(len(body))); !bytes.Equal(got, body) {
		t.Fatal("pinned export corrupted by cache thrash — a pinned buffer was evicted")
	}
	p.Release()
	if got := fs.cache.gPinned.Load(); got != 0 {
		t.Fatalf("%d buffers still pinned", got)
	}
}
