package linuxfs

import (
	"encoding/binary"

	"oskit/internal/linux/legacy"
)

// ext2 directories: each block is a chain of variable-length records
//
//	inode u32 | rec_len u16 | name_len u8 | file_type u8 | name...
//
// whose rec_lens exactly tile the block.  A record with inode 0 is
// free space; deleting an entry folds its rec_len into the predecessor.

const (
	direntFixed = 8
	// MaxNameLen matches ext2.
	MaxNameLen = 255
)

func direntSize(nameLen int) uint16 {
	// Records are 4-byte aligned, per ext2.
	return uint16((direntFixed + nameLen + 3) &^ 3)
}

// dirent is one decoded record.
type dirent struct {
	ino      uint32
	recLen   uint16
	nameLen  uint8
	fileType uint8
	name     string
}

// decodeDirent reads the record at off; ok=false when the block tiling
// is corrupt.
func decodeDirent(b []byte, off int) (dirent, bool) {
	if off+direntFixed > len(b) {
		return dirent{}, false
	}
	var d dirent
	d.ino = binary.LittleEndian.Uint32(b[off:])
	d.recLen = binary.LittleEndian.Uint16(b[off+4:])
	d.nameLen = b[off+6]
	d.fileType = b[off+7]
	if d.recLen < direntFixed || off+int(d.recLen) > len(b) ||
		direntFixed+int(d.nameLen) > int(d.recLen) {
		return dirent{}, false
	}
	d.name = string(b[off+direntFixed : off+direntFixed+int(d.nameLen)])
	return d, true
}

func encodeDirent(b []byte, off int, d dirent) {
	binary.LittleEndian.PutUint32(b[off:], d.ino)
	binary.LittleEndian.PutUint16(b[off+4:], d.recLen)
	b[off+6] = d.nameLen
	b[off+7] = d.fileType
	copy(b[off+direntFixed:], d.name)
}

// dirScan walks every record of a directory, calling fn with the block's
// logical number, the in-block offset, and the record; fn returning
// false stops.  Holes are impossible (directory blocks are allocated
// whole).
func (fs *FS) dirScan(di *inode, fn func(lbn uint32, off int, d dirent) bool) error {
	nblocks := (di.size + BlockSize - 1) / BlockSize
	var blockBuf [BlockSize]byte
	for lbn := uint32(0); lbn < nblocks; lbn++ {
		if _, err := fs.readi(di, blockBuf[:], uint64(lbn)*BlockSize); err != nil {
			return err
		}
		off := 0
		for off < BlockSize {
			d, ok := decodeDirent(blockBuf[:], off)
			if !ok {
				return legacy.EIO // corrupt tiling
			}
			if !fn(lbn, off, d) {
				return nil
			}
			off += int(d.recLen)
		}
	}
	return nil
}

// dirLookup finds name, returning its inode.
func (fs *FS) dirLookup(di *inode, name string) (uint32, error) {
	var found uint32
	err := fs.dirScan(di, func(_ uint32, _ int, d dirent) bool {
		if d.ino != 0 && d.name == name {
			found = d.ino
			return false
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	if found == 0 {
		return 0, legacy.ENOENT
	}
	return found, nil
}

// dirEnter inserts (name -> ino): it splits a record with enough slack,
// or appends a fresh block whose single record spans it entirely.
func (fs *FS) dirEnter(dd *inode, ddIno uint32, name string, ino uint32, ftype uint8) error {
	if len(name) > MaxNameLen {
		return legacy.ENAMETOOLONG
	}
	need := direntSize(len(name))

	// Pass 1: find a record with room (free record, or used record
	// whose rec_len slack fits the new one).
	var foundLbn uint32
	foundOff := -1
	var foundD dirent
	err := fs.dirScan(dd, func(lbn uint32, off int, d dirent) bool {
		if d.ino == 0 && d.recLen >= need {
			foundLbn, foundOff, foundD = lbn, off, d
			return false
		}
		used := direntSize(int(d.nameLen))
		if d.ino != 0 && d.recLen >= used+need {
			foundLbn, foundOff, foundD = lbn, off, d
			return false
		}
		return true
	})
	if err != nil {
		return err
	}

	var blockBuf [BlockSize]byte
	if foundOff >= 0 {
		if _, err := fs.readi(dd, blockBuf[:], uint64(foundLbn)*BlockSize); err != nil {
			return err
		}
		if foundD.ino == 0 {
			// Reuse the free record in place.
			encodeDirent(blockBuf[:], foundOff, dirent{
				ino: ino, recLen: foundD.recLen,
				nameLen: uint8(len(name)), fileType: ftype, name: name,
			})
		} else {
			// Split: shrink the used record to its true size, and the
			// newcomer inherits the slack.
			used := direntSize(int(foundD.nameLen))
			rest := foundD.recLen - used
			foundD.recLen = used
			encodeDirent(blockBuf[:], foundOff, foundD)
			encodeDirent(blockBuf[:], foundOff+int(used), dirent{
				ino: ino, recLen: rest,
				nameLen: uint8(len(name)), fileType: ftype, name: name,
			})
		}
		if _, err := fs.writei(dd, blockBuf[:], uint64(foundLbn)*BlockSize); err != nil {
			return err
		}
		return fs.iput(ddIno, dd)
	}

	// Pass 2: grow the directory by one block; the new record's rec_len
	// covers the whole block.
	clear(blockBuf[:])
	encodeDirent(blockBuf[:], 0, dirent{
		ino: ino, recLen: BlockSize,
		nameLen: uint8(len(name)), fileType: ftype, name: name,
	})
	if _, err := fs.writei(dd, blockBuf[:], uint64(dd.size)); err != nil {
		return err
	}
	return fs.iput(ddIno, dd)
}

// dirRemove deletes name: the record is folded into its predecessor (or
// becomes a free record when it leads its block).
func (fs *FS) dirRemove(dd *inode, ddIno uint32, name string) error {
	var lbn uint32
	off, prevOff := -1, -1
	var cur, prev dirent
	curLbn := uint32(0)
	lastOffInBlock := -1
	var lastD dirent
	err := fs.dirScan(dd, func(l uint32, o int, d dirent) bool {
		if l != curLbn {
			curLbn = l
			lastOffInBlock = -1
		}
		if d.ino != 0 && d.name == name {
			lbn, off, cur = l, o, d
			prevOff = lastOffInBlock
			prev = lastD
			return false
		}
		lastOffInBlock = o
		lastD = d
		return true
	})
	if err != nil {
		return err
	}
	if off < 0 {
		return legacy.ENOENT
	}
	var blockBuf [BlockSize]byte
	if _, err := fs.readi(dd, blockBuf[:], uint64(lbn)*BlockSize); err != nil {
		return err
	}
	if prevOff >= 0 {
		// Fold into the predecessor.
		prev.recLen += cur.recLen
		encodeDirent(blockBuf[:], prevOff, prev)
	} else {
		// Leading record: mark free.
		cur.ino = 0
		cur.nameLen = 0
		cur.fileType = ftUnknown
		cur.name = ""
		encodeDirent(blockBuf[:], off, cur)
	}
	if _, err := fs.writei(dd, blockBuf[:], uint64(lbn)*BlockSize); err != nil {
		return err
	}
	return fs.iput(ddIno, dd)
}

// dirEmpty reports whether the directory has no live entries.
func (fs *FS) dirEmpty(di *inode) (bool, error) {
	empty := true
	err := fs.dirScan(di, func(_ uint32, _ int, d dirent) bool {
		if d.ino != 0 {
			empty = false
			return false
		}
		return true
	})
	return empty, err
}

// dirList returns the live entries in record order.
func (fs *FS) dirList(di *inode) ([]dirent, error) {
	var out []dirent
	err := fs.dirScan(di, func(_ uint32, _ int, d dirent) bool {
		if d.ino != 0 {
			out = append(out, d)
		}
		return true
	})
	return out, err
}

// checkName enforces the single-component rule (§3.8).
func checkName(name string) error {
	if name == "" || name == "." || name == ".." {
		return legacy.EINVAL
	}
	if len(name) > MaxNameLen {
		return legacy.ENAMETOOLONG
	}
	for i := 0; i < len(name); i++ {
		if name[i] == '/' || name[i] == 0 {
			return legacy.EINVAL
		}
	}
	return nil
}
