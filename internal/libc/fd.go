package libc

import "oskit/internal/com"

// The POSIX descriptor layer: file descriptors are small integers naming
// references to COM objects (paper §5).  Seek offsets live here, in the
// descriptor, because the kit's File interface is stateless (offsets are
// explicit), keeping per-open state out of file system components.

type fdKind int

const (
	fdFile fdKind = iota
	fdDir
	fdStream
	fdSocket
)

type fdesc struct {
	kind   fdKind
	file   com.File
	dir    com.Dir
	offset uint64
	app    bool // O_APPEND
	stream com.Stream
	sock   com.Socket
}

func (f *fdesc) close() {
	switch f.kind {
	case fdFile:
		f.file.Release()
	case fdDir:
		f.dir.Release()
	case fdStream:
		f.stream.Release()
	case fdSocket:
		_ = f.sock.Close()
		f.sock.Release()
	}
}

// installFD places d in the lowest free slot (POSIX allocation order).
func (c *C) installFD(d *fdesc) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, e := range c.fds {
		if e == nil {
			c.fds[i] = d
			return i
		}
	}
	c.fds = append(c.fds, d)
	return len(c.fds) - 1
}

func (c *C) getFD(fd int) (*fdesc, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if fd < 0 || fd >= len(c.fds) || c.fds[fd] == nil {
		return nil, com.ErrBadF
	}
	return c.fds[fd], nil
}

// Close releases a descriptor.
func (c *C) Close(fd int) error {
	c.mu.Lock()
	if fd < 0 || fd >= len(c.fds) || c.fds[fd] == nil {
		c.mu.Unlock()
		return com.ErrBadF
	}
	d := c.fds[fd]
	c.fds[fd] = nil
	c.mu.Unlock()
	d.close()
	return nil
}

// Read reads from any descriptor kind, advancing file offsets.
func (c *C) Read(fd int, buf []byte) (int, error) {
	d, err := c.getFD(fd)
	if err != nil {
		return 0, err
	}
	switch d.kind {
	case fdFile:
		n, err := d.file.ReadAt(buf, d.offset)
		if err != nil {
			return 0, err
		}
		d.offset += uint64(n)
		return int(n), nil
	case fdStream:
		n, err := d.stream.Read(buf)
		return int(n), err
	case fdSocket:
		n, err := d.sock.Read(buf)
		return int(n), err
	}
	return 0, com.ErrIsDir
}

// Write writes to any descriptor kind, honouring O_APPEND.
func (c *C) Write(fd int, buf []byte) (int, error) {
	d, err := c.getFD(fd)
	if err != nil {
		return 0, err
	}
	switch d.kind {
	case fdFile:
		return d.writeFile(buf)
	case fdStream:
		n, err := d.stream.Write(buf)
		return int(n), err
	case fdSocket:
		n, err := d.sock.Write(buf)
		return int(n), err
	}
	return 0, com.ErrIsDir
}

// writeFile is Write on a file, out of line: its stat buffer would
// otherwise sit in the frame of every socket write.
func (d *fdesc) writeFile(buf []byte) (int, error) {
	if d.app {
		st, err := d.file.GetStat()
		if err != nil {
			return 0, err
		}
		d.offset = st.Size
	}
	n, err := d.file.WriteAt(buf, d.offset)
	if err != nil {
		return 0, err
	}
	d.offset += uint64(n)
	return int(n), nil
}

// Seek whence values.
const (
	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)

// Lseek repositions a file descriptor's offset.
func (c *C) Lseek(fd int, offset int64, whence int) (uint64, error) {
	d, err := c.getFD(fd)
	if err != nil {
		return 0, err
	}
	if d.kind != fdFile {
		return 0, com.ErrInval // ESPIPE territory
	}
	var base uint64
	switch whence {
	case SeekSet:
		base = 0
	case SeekCur:
		base = d.offset
	case SeekEnd:
		st, err := d.file.GetStat()
		if err != nil {
			return 0, err
		}
		base = st.Size
	default:
		return 0, com.ErrInval
	}
	pos := int64(base) + offset
	if pos < 0 {
		return 0, com.ErrInval
	}
	d.offset = uint64(pos)
	return d.offset, nil
}

// Dup duplicates a descriptor (both share the COM object but not the
// offset, matching the kit's stateless-File model; the original OSKit's
// openfile objects behaved likewise).
func (c *C) Dup(fd int) (int, error) {
	d, err := c.getFD(fd)
	if err != nil {
		return 0, err
	}
	nd := *d
	switch d.kind {
	case fdFile:
		d.file.AddRef()
	case fdDir:
		d.dir.AddRef()
	case fdStream:
		d.stream.AddRef()
	case fdSocket:
		d.sock.AddRef()
	}
	return c.installFD(&nd), nil
}

// Fstat returns metadata for a file or directory descriptor.
func (c *C) Fstat(fd int) (com.Stat, error) {
	d, err := c.getFD(fd)
	if err != nil {
		return com.Stat{}, err
	}
	switch d.kind {
	case fdFile:
		return d.file.GetStat()
	case fdDir:
		return d.dir.GetStat()
	}
	return com.Stat{}, com.ErrInval
}

// InstallFile installs an already-open com.File as a descriptor (one
// new reference is taken) — the reverse of FdObject, for clients that
// obtained the object through a native interface (e.g. a §3.8 security
// wrapper's per-component walk) and want to continue through the POSIX
// layer.
func (c *C) InstallFile(f com.File) int {
	f.AddRef()
	return c.installFD(&fdesc{kind: fdFile, file: f})
}

// FdObject exposes the COM object behind a descriptor (one new
// reference), letting clients escape to the native interfaces — the open
// implementation idea applied to the POSIX layer.
func (c *C) FdObject(fd int) (com.IUnknown, error) {
	d, err := c.getFD(fd)
	if err != nil {
		return nil, err
	}
	switch d.kind {
	case fdFile:
		d.file.AddRef()
		return d.file, nil
	case fdDir:
		d.dir.AddRef()
		return d.dir, nil
	case fdStream:
		d.stream.AddRef()
		return d.stream, nil
	case fdSocket:
		d.sock.AddRef()
		return d.sock, nil
	}
	return nil, com.ErrBadF
}
