package evalrig

import (
	"fmt"
	"io"
	"sync"
)

// The socket-level moves every workload is built from, written once.
// The same helper serves a pair's one-thread-per-node workloads and a
// cluster's many-threads-per-node ones.

// listen opens a TCP listener on n: socket, reuseaddr (like any
// restartable server, so a back-to-back run can rebind the port while
// the previous run's pcbs are still tearing down), bind, listen.
func listen(n *Node, port uint16, backlog int) (lfd int, err error) {
	lfd, err = n.C.Socket(2, 1, 0)
	if err != nil {
		return lfd, err
	}
	if err = n.C.SetSockOpt(lfd, "reuseaddr", 1); err == nil {
		if err = n.C.Bind(lfd, Addr(n.IP, port)); err == nil {
			err = n.C.Listen(lfd, backlog)
		}
	}
	if err != nil {
		_ = n.C.Close(lfd)
	}
	return lfd, err
}

// dial opens a TCP connection from n to ip:port, setting the named
// socket option (when opt is non-empty) before connecting.  The
// descriptor is closed again on failure.
func dial(n *Node, ip [4]byte, port uint16, opt string, val int) (fd int, err error) {
	fd, err = n.C.Socket(2, 1, 0)
	if err != nil {
		return 0, err
	}
	if opt != "" {
		err = n.C.SetSockOpt(fd, opt, val)
	}
	if err == nil {
		err = n.C.Connect(fd, Addr(ip, port))
		if err != nil {
			err = fmt.Errorf("connect: %w", err)
		}
	}
	if err != nil {
		closeFD(n, fd)
		return 0, err
	}
	return fd, nil
}

func closeFD(n *Node, fd int) { _ = n.C.Close(fd) }

// writeAll writes all of b to fd, looping over short writes.
func writeAll(n *Node, fd int, b []byte) error {
	for sent := 0; sent < len(b); {
		w, err := n.C.Write(fd, b[sent:])
		if err != nil {
			return fmt.Errorf("write at %d: %w", sent, err)
		}
		sent += w
	}
	return nil
}

// readFull reads exactly len(b) bytes from fd; end of stream before
// that is io.ErrUnexpectedEOF.
func readFull(n *Node, fd int, b []byte) error {
	for total := 0; total < len(b); {
		r, err := n.C.Read(fd, b[total:])
		if err == nil && r == 0 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return fmt.Errorf("read at %d of %d: %w", total, len(b), err)
		}
		total += r
	}
	return nil
}

// acceptLoop accepts connections on lfd and runs handle on its own
// goroutine for each (handle owns the descriptor): quota of them, or —
// quota < 0 — until Accept fails, which is how closing the listener
// ends a server.  The returned channel yields Accept's error (nil once
// a quota is met) after every handler has returned.
func acceptLoop(srv *Node, lfd, quota int, handle func(fd int)) <-chan error {
	done := make(chan error, 1)
	go func() {
		var handlers sync.WaitGroup
		var err error
		for n := 0; n != quota; n++ {
			var fd int
			fd, _, err = srv.C.Accept(lfd)
			if err != nil {
				break
			}
			handlers.Add(1)
			go func() {
				defer handlers.Done()
				handle(fd)
			}()
		}
		handlers.Wait()
		done <- err
	}()
	return done
}
