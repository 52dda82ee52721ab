package httpd

import (
	"fmt"
	"strconv"

	"oskit/internal/com"
	"oskit/internal/libc"
)

// Server serves a file tree over HTTP/1.1 through the kit's POSIX
// layer.  One Server may serve many connections concurrently (one
// goroutine per accepted descriptor); the components underneath take
// their own exclusion, so the server needs no lock.
type Server struct {
	C    *libc.C
	Root *SecureRoot
	// Do, when non-nil, wraps each component call.  Nothing in the kit
	// sets it; it remains because bench/rig.go does (ROADMAP item 13).
	Do func(func())
}

// do applies the Do hook.
func (s *Server) do(fn func()) {
	if s.Do != nil {
		s.Do(fn)
	} else {
		fn()
	}
}

// ioRetries is the op-level retry budget for the transient com.ErrIO
// an injected disk fault surfaces — the same client contract the soak
// harness and examples/fileserver prove.
const ioRetries = 64

// conn is one connection's state.  Every component call goes through
// Server.do as a closure built once per connection, with its arguments
// and results in the struct, so serving a request builds none.
type conn struct {
	s  *Server
	fd int

	buf     []byte // one Read's worth of input
	pending []byte // input not yet consumed as a request head
	out     []byte // response head being written
	rest    []byte // what writeAll has still to write

	path string   // open: the request path
	file com.File // open: its result
	ffd  int      // the open file's descriptor
	st   com.Stat
	off  uint64 // sendfile: offset reached

	n   int
	nb  uint64
	err error

	read, write, open, fstat, sendfile, closeFile, closeConn func()
}

func (s *Server) newConn(fd int) *conn {
	c := &conn{s: s, fd: fd, buf: make([]byte, 2048)}
	c.read = func() { c.n, c.err = c.s.C.Read(c.fd, c.buf) }
	c.write = func() { c.n, c.err = c.s.C.Write(c.fd, c.rest) }
	c.open = func() { c.file, c.err = c.s.Root.Open(c.path) }
	c.fstat = func() { c.st, c.err = c.s.C.Fstat(c.ffd) }
	c.sendfile = func() { c.nb, c.err = c.s.C.Sendfile(c.fd, c.ffd, c.off, c.st.Size-c.off) }
	c.closeFile = func() { _ = c.s.C.Close(c.ffd) }
	c.closeConn = func() { _ = c.s.C.Close(c.fd) }
	return c
}

// Serve handles one accepted connection until it closes: a keep-alive
// request loop with pipelined bytes carried between requests.  The
// descriptor is closed on return.
func (s *Server) Serve(fd int) {
	c := s.newConn(fd)
	defer s.do(c.closeConn)
	for {
		end := findHeadEnd(c.pending)
		for end < 0 {
			if len(c.pending) > MaxHeaderBytes {
				c.respond("400 Bad Request", "bad request\n", false)
				return
			}
			s.do(c.read)
			if c.err != nil || c.n == 0 {
				if len(c.pending) > 0 {
					// The peer quit mid-head: fail closed.
					c.respond("400 Bad Request", "bad request\n", false)
				}
				return
			}
			c.pending = append(c.pending, c.buf[:c.n]...)
			end = findHeadEnd(c.pending)
		}
		req, err := ParseRequest(c.pending[:end])
		// Keep the pipelined remainder at the front of the same storage.
		c.pending = c.pending[:copy(c.pending, c.pending[end:])]
		if err != nil {
			// Fail closed: a 400 answer, then the connection dies —
			// pipelined garbage after a malformed head is never
			// reinterpreted as a fresh request.
			c.respond("400 Bad Request", "bad request\n", false)
			return
		}
		if !c.handle(req) {
			return
		}
	}
}

// handle answers one parsed request, reporting whether the connection
// stays open.
func (c *conn) handle(req *Request) bool {
	s := c.s
	// This server never accepts a request body; a declared one would
	// desynchronize the keep-alive framing, so refuse and close.
	if req.ContentLength > 0 {
		return c.respond("400 Bad Request", "no request bodies\n", false)
	}
	if req.Method != "GET" && req.Method != "HEAD" {
		return c.respond("405 Method Not Allowed", "method not allowed\n", false)
	}

	// Resolve through the §3.8 wrapper, retrying injected disk errors.
	c.path = req.Path
	c.retryIO(c.open)
	c.path = ""
	if c.err != nil {
		status, body := errStatus(c.err)
		return c.respond(status, body, req.KeepAlive)
	}
	c.ffd = s.C.InstallFile(c.file)
	c.file.Release()
	c.file = nil
	defer s.do(c.closeFile)

	if c.retryIO(c.fstat); c.err != nil {
		return c.respond("500 Internal Server Error", "stat failed\n", false)
	}

	c.out = append(c.out[:0], "HTTP/1.1 200 OK\r\nContent-Length: "...)
	c.out = strconv.AppendUint(c.out, c.st.Size, 10)
	c.out = append(c.out, "\r\nContent-Type: application/octet-stream\r\nConnection: "...)
	c.out = append(c.out, connection(req.KeepAlive)...)
	c.out = append(c.out, "\r\n\r\n"...)
	if c.writeAll(c.out) != nil {
		return false
	}
	if req.Method == "HEAD" {
		return req.KeepAlive
	}

	// The body: libc.Sendfile — the E15 path.  A zero-copy stack moves
	// buffer-cache pages straight to the gather engine; any other
	// configuration produces the identical bytes through its copy
	// path.  Transient ErrIO resumes from the delivered offset (bytes
	// already queued on the socket are never resent).
	c.off = 0
	tries := 0
	for c.off < c.st.Size {
		s.do(c.sendfile)
		c.off += c.nb
		if c.err == nil {
			continue
		}
		if c.err == com.ErrIO && tries < ioRetries {
			tries++
			continue
		}
		return false // mid-body failure: the framing is broken, drop
	}
	return req.KeepAlive
}

// retryIO re-attempts call while it fails with transient com.ErrIO;
// the last error is left in c.err.
func (c *conn) retryIO(call func()) {
	for i := 0; i < ioRetries; i++ {
		c.s.do(call)
		if c.err != com.ErrIO {
			return
		}
	}
}

// connection is the Connection header value for a keep-alive choice.
func connection(keep bool) string {
	if keep {
		return "keep-alive"
	}
	return "close"
}

// errStatus maps a wrapper error to its HTTP answer.
func errStatus(err error) (status, body string) {
	switch err {
	case com.ErrAccess, com.ErrIsDir:
		return "403 Forbidden", "forbidden\n"
	case com.ErrNoEnt, com.ErrNotDir:
		return "404 Not Found", "not found\n"
	}
	return "500 Internal Server Error", "error\n"
}

// respond writes a small complete response, reporting whether the
// connection stays open.
func (c *conn) respond(status, body string, keep bool) bool {
	msg := fmt.Sprintf("HTTP/1.1 %s\r\nContent-Length: %d\r\n"+
		"Content-Type: text/plain\r\nConnection: %s\r\n\r\n%s",
		status, len(body), connection(keep), body)
	return c.writeAll([]byte(msg)) == nil && keep
}

// writeAll pushes the whole buffer through the socket.
func (c *conn) writeAll(b []byte) error {
	c.rest = b
	defer func() { c.rest = nil }()
	for len(c.rest) > 0 {
		c.s.do(c.write)
		if c.err != nil {
			return c.err
		}
		c.rest = c.rest[c.n:]
	}
	return nil
}

// findHeadEnd locates the blank line ending a request head, returning
// the index just past it, or -1 while incomplete.
func findHeadEnd(b []byte) int {
	for i := 0; i < len(b); i++ {
		if b[i] != '\n' {
			continue
		}
		j := i + 1
		if j < len(b) && b[j] == '\r' {
			j++
		}
		if j < len(b) && b[j] == '\n' {
			return j + 1
		}
	}
	return -1
}
