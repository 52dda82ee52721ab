package bsdnet

import (
	"oskit/internal/com"
	bsdglue "oskit/internal/freebsd/glue"
)

// The socket-side half of the zero-copy serving path (E15): SendFile
// moves a file's bytes into a TCP connection.  When the stack was
// assembled fast-path (it holds a packet pool) AND the file answers
// com.SendfileIID, each window of the file arrives as pinned cache
// pages (an SGBufIO) that are wrapped as external mbufs — every mbuf
// holds a reference on the pin, CopyM's ext branch re-references it for
// each segment and retransmission, and the final Free (ACK-driven
// sbdrop, or teardown flush) releases the pages.  No payload byte is copied between the
// buffer cache and the NIC's gather engine.  In every other
// configuration — or per-window, when the file declines a range
// (holes, EOF races) — SendFile falls back to an internal
// read-and-append loop whose wire behaviour is byte-identical to
// Write, keeping the default path-shape pins intact.
//
// Every call into the file system runs with the stack lock released
// (unlocked): it may sleep on the disk, or on a pin that only a
// received ACK releases, and that ACK needs the stack lock.

// sendfileWindow is how much file one mapping covers.  It must fit the
// file side's pin cap (maxPinBlocks) and leave the send buffer able to
// absorb a whole window (hiwat is 16 KB), so in-flight pins stay
// bounded by send-buffer occupancy — the cache can never be pinned
// solid by one connection.
const sendfileWindow = 8192

// SendFile implements com.SockSendfile.
func (so *socket) SendFile(f com.File, offset, length uint64) (uint64, error) {
	defer so.s.enter("sendfile").leave()
	if so.tcp == nil || f == nil {
		return 0, com.ErrInval
	}

	// Negotiate the page seam once per call (§4.4.2): only a fast-path
	// stack ever asks, so default bindings never see the extension.
	var sf com.Sendfile
	if so.s.pktPool != nil {
		var obj com.IUnknown
		var err error
		so.s.unlocked(func() { obj, err = f.QueryInterface(com.SendfileIID) })
		if err == nil {
			sf = obj.(com.Sendfile)
			defer sf.Release()
		}
	}

	total := uint64(0)
	for total < length {
		win := length - total
		if win > sendfileWindow {
			win = sendfileWindow
		}
		if sf != nil {
			n, err := so.sendfileMapWindow(sf, offset+total, win)
			total += n
			if err == nil {
				continue
			}
			if err == com.ErrPipe || err == com.ErrNoMem || n > 0 {
				return total, err
			}
			// The file declined this range (hole, shrink race):
			// fall through to the copy path for the window.
		}
		n, err := so.sendfileCopyWindow(f, offset+total, win)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// sendfileMapWindow maps one window of the file as pinned pages and
// appends them to the send buffer as external mbufs.
func (so *socket) sendfileMapWindow(sf com.Sendfile, offset, win uint64) (uint64, error) {
	var pin com.SGBufIO
	var err error
	so.s.unlocked(func() { pin, err = sf.MapFileSG(offset, win) })
	if err != nil {
		return 0, err
	}
	parts, err := pin.MapSG(0, uint(win))
	if err != nil {
		pin.Release()
		return 0, err
	}
	var head, tail *Mbuf
	for _, part := range parts {
		mb := so.s.MExt(pin, part) // each link holds one pin reference
		mb.PktLen = 0
		if head == nil {
			head = mb
		} else {
			tail.Next = mb
		}
		tail = mb
	}
	pin.Release() // creation reference; the links keep the pages pinned
	if head == nil {
		return 0, com.ErrInval
	}
	head.PktLen = int(win)
	so.s.sc.sfPagesMapped.Add(uint64(len(parts)))
	so.s.sc.sfZCBytes.Add(win)

	if err := so.sendfileAppend(head, int(win)); err != nil {
		return 0, err
	}
	return win, nil
}

// sendfileCopyWindow is the fallback: read one window through the
// plain File interface and append it like Write would.
func (so *socket) sendfileCopyWindow(f com.File, offset, win uint64) (uint64, error) {
	buf := make([]byte, win)
	var n uint
	var err error
	so.s.unlocked(func() { n, err = f.ReadAt(buf, offset) })
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, com.ErrInval // past EOF: the caller asked for too much
	}
	so.s.sc.sfBytesCopied.Add(uint64(n))

	sent, err := so.writeTCP(buf[:n])
	if err == nil && uint(n) < uint(win) {
		err = com.ErrInval // short file: caller over-asked
	}
	return uint64(sent), err
}

// sendfileAppend blocks for enough send-buffer room, then links the
// chain in whole (the window never exceeds the buffer limit, so the
// wait always terminates as ACKs drain).  On connection failure the
// chain is freed — which releases its page pins.
func (so *socket) sendfileAppend(head *Mbuf, n int) error {
	tp := so.tcp
	s := so.s
	for {
		if tp.err != 0 {
			head.FreeChain()
			return bsdglue.COMError(tp.err)
		}
		switch tp.state {
		case tcpsEstablished, tcpsCloseWait:
		default:
			head.FreeChain()
			return com.ErrPipe
		}
		if tp.sndBuf.space() >= n {
			break
		}
		tp.armPersistIfNeeded()
		s.sleep(tp.sndBuf.event, "sosend")
	}
	tp.sndBuf.appendChain(head)
	s.tcpOutput(tp)
	return nil
}

var _ com.SockSendfile = (*socket)(nil)
