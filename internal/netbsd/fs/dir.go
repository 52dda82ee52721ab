package netbsdfs

import (
	"encoding/binary"

	bsdglue "oskit/internal/freebsd/glue"
)

// Directories are regular files of fixed 64-byte entries:
//
//	ino u32 | namelen u8 | name[59]
//
// ino == 0 marks a free slot.

// DirentSize is the on-disk directory entry size.
const DirentSize = 64

// MaxNameLen is the longest component name.
const MaxNameLen = 59

// File type bits stored in the inode mode (BSD's S_IFMT family, POSIX
// values).
const (
	ifmt  = 0o170000
	ifdir = 0o040000
)

func isDir(di *dinode) bool { return di.mode&ifmt == ifdir }

// direct is one live directory entry as dirList returns it (struct
// direct, pruned).
type direct struct {
	ino  uint32
	name string
}

// dirLookup finds name in directory di, returning the entry's inode and
// the byte offset of its slot.
func (fs *FFS) dirLookup(di *dinode, name string) (ino uint32, slotOff uint64, err error) {
	var ent [DirentSize]byte
	for off := uint64(0); off < di.size; off += DirentSize {
		if _, err := fs.readi(di, ent[:], off); err != nil {
			return 0, 0, err
		}
		eIno := binary.LittleEndian.Uint32(ent[0:4])
		if eIno == 0 {
			continue
		}
		n := int(ent[4])
		if n <= MaxNameLen && string(ent[5:5+n]) == name {
			return eIno, off, nil
		}
	}
	return 0, 0, bsdglue.ENOENT
}

// dirEnter adds (name, ino) to directory dd, reusing a free slot.
func (fs *FFS) dirEnter(dd *dinode, name string, ino uint32) error {
	if len(name) > MaxNameLen {
		return bsdglue.ENAMETOOLONG
	}
	var ent [DirentSize]byte
	slot := dd.size
	for off := uint64(0); off < dd.size; off += DirentSize {
		if _, err := fs.readi(dd, ent[:], off); err != nil {
			return err
		}
		if binary.LittleEndian.Uint32(ent[0:4]) == 0 {
			slot = off
			break
		}
	}
	clear(ent[:])
	binary.LittleEndian.PutUint32(ent[0:4], ino)
	ent[4] = byte(len(name))
	copy(ent[5:], name)
	_, err := fs.writei(dd, ent[:], slot)
	return err
}

// dirRemove clears the slot at slotOff.
func (fs *FFS) dirRemove(dd *dinode, slotOff uint64) error {
	var zero [DirentSize]byte
	_, err := fs.writei(dd, zero[:], slotOff)
	return err
}

// dirEmpty reports whether the directory holds no live entries.
func (fs *FFS) dirEmpty(di *dinode) (bool, error) {
	var ent [DirentSize]byte
	for off := uint64(0); off < di.size; off += DirentSize {
		if _, err := fs.readi(di, ent[:], off); err != nil {
			return false, err
		}
		if binary.LittleEndian.Uint32(ent[0:4]) != 0 {
			return false, nil
		}
	}
	return true, nil
}

// dirList returns the live entries in slot order.
func (fs *FFS) dirList(di *dinode) ([]direct, error) {
	var out []direct
	var ent [DirentSize]byte
	for off := uint64(0); off < di.size; off += DirentSize {
		if _, err := fs.readi(di, ent[:], off); err != nil {
			return nil, err
		}
		ino := binary.LittleEndian.Uint32(ent[0:4])
		if ino == 0 {
			continue
		}
		n := int(ent[4])
		if n > MaxNameLen {
			n = MaxNameLen
		}
		out = append(out, direct{ino, string(ent[5 : 5+n])})
	}
	return out, nil
}

// dirUnder reports whether directory ino is top or lies in top's
// subtree.  No directory records its parent, so the subtree is searched.
func (fs *FFS) dirUnder(ino, top uint32) (bool, error) {
	if ino == top {
		return true, nil
	}
	di, err := fs.iget(top)
	if err != nil {
		return false, err
	}
	ents, err := fs.dirList(&di)
	if err != nil {
		return false, err
	}
	for _, e := range ents {
		sub, err := fs.iget(e.ino)
		if err != nil {
			return false, err
		}
		if isDir(&sub) {
			if under, err := fs.dirUnder(ino, e.ino); under || err != nil {
				return under, err
			}
		}
	}
	return false, nil
}

// checkName enforces the single-component rule (§3.8).
func checkName(name string) error {
	if name == "" || name == "." || name == ".." {
		return bsdglue.EINVAL
	}
	if len(name) > MaxNameLen {
		return bsdglue.ENAMETOOLONG
	}
	for i := 0; i < len(name); i++ {
		if name[i] == '/' || name[i] == 0 {
			return bsdglue.EINVAL
		}
	}
	return nil
}
