package bsdnet

import (
	"oskit/internal/com"
	bsdglue "oskit/internal/freebsd/glue"
)

// The socket layer: the COM Socket/SocketFactory exported by the stack
// (§5).  Every method is a component entry point: Stack.enter
// manufactures a current process (§4.7.5) and takes the stack lock in
// one call, and the deferred leave undoes both.
// Blocking goes through Stack.sleep, which releases the stack lock
// across the block (stack.go).

// Factory is the stack's socket factory (what oskit_freebsd_net_init
// hands back for posix_set_socketcreator).
type Factory struct {
	com.RefCount
	s *Stack
}

// SocketFactory returns the stack's factory with one reference.
func (s *Stack) SocketFactory() *Factory {
	f := &Factory{s: s}
	f.Init()
	return f
}

// QueryInterface implements com.IUnknown.
func (f *Factory) QueryInterface(iid com.GUID) (com.IUnknown, error) {
	switch iid {
	case com.UnknownIID, com.SocketFactoryIID:
		f.AddRef()
		return f, nil
	}
	return nil, com.ErrNoInterface
}

// CreateSocket implements com.SocketFactory.
func (f *Factory) CreateSocket(domain, typ, protocol int) (com.Socket, error) {
	if domain != com.AFInet {
		return nil, com.ErrInval
	}
	s := f.s
	defer s.g.Enter("socket")()
	s.mu.Enter()
	defer s.mu.Leave()
	sock := &socket{s: s}
	sock.Init()
	switch typ {
	case com.SockStream:
		sock.tcp = s.tcpNew()
		sock.tcp.refcnt++
	case com.SockDgram:
		sock.udp = s.udpNew()
	default:
		return nil, com.ErrInval
	}
	return sock, nil
}

var _ com.SocketFactory = (*Factory)(nil)

// socket is one COM socket over a TCP or UDP pcb.
type socket struct {
	com.RefCount
	s   *Stack
	tcp *tcpcb
	udp *udpPCB

	reuse  bool //oskit:guardedby s.mu
	closed bool //oskit:guardedby s.mu
}

// QueryInterface implements com.IUnknown.  Stream sockets additionally
// answer for the sendfile entry (§4.4.2): clients that never ask keep
// the plain Socket contract.
func (so *socket) QueryInterface(iid com.GUID) (com.IUnknown, error) {
	switch iid {
	case com.UnknownIID, com.SocketIID:
		so.AddRef()
		return so, nil
	case com.SockSendfileIID:
		if so.tcp != nil {
			so.AddRef()
			return so, nil
		}
	}
	return nil, com.ErrNoInterface
}

// Bind implements com.Socket.
func (so *socket) Bind(addr com.SockAddr) error {
	defer so.s.g.Enter("bind")()
	so.s.mu.Enter()
	defer so.s.mu.Leave()
	if so.closed {
		return com.ErrBadF
	}
	if so.tcp != nil {
		return bsdglue.COMError(so.s.tcpBind(so.tcp, addr.Port, so.reuse))
	}
	return bsdglue.COMError(so.s.udpBind(so.udp, addr.Port))
}

// Connect implements com.Socket: for TCP it blocks until the handshake
// completes or fails.
func (so *socket) Connect(addr com.SockAddr) error {
	defer so.s.g.Enter("connect")()
	so.s.mu.Enter()
	defer so.s.mu.Leave()
	if so.closed {
		return com.ErrBadF
	}
	var dst IPAddr
	copy(dst[:], addr.Addr[:])
	if so.udp != nil {
		return bsdglue.COMError(so.s.udpConnect(so.udp, dst, addr.Port))
	}
	tp := so.tcp
	if err := tp.usrConnect(dst, addr.Port); err != nil {
		return bsdglue.COMError(err)
	}
	// Wait out the handshake only: a peer that answers, sends and closes
	// before this thread runs again has already taken the connection
	// past ESTABLISHED, and its data and FIN wait in the socket.
	for tp.state == tcpsSynSent || tp.state == tcpsSynRcvd {
		so.s.sleep(tp.connEvent, "connec")
	}
	if tp.state != tcpsClosed {
		return nil
	}
	err := tp.err
	tp.err = 0
	if err == 0 || err == bsdglue.ECONNRESET {
		return com.ErrConnRef // RST during handshake = refused
	}
	return bsdglue.COMError(err)
}

// Listen implements com.Socket.
func (so *socket) Listen(backlog int) error {
	defer so.s.g.Enter("listen")()
	so.s.mu.Enter()
	defer so.s.mu.Leave()
	if so.tcp == nil {
		return com.ErrInval
	}
	return bsdglue.COMError(so.tcp.usrListen(backlog))
}

// Accept implements com.Socket.
func (so *socket) Accept() (com.Socket, com.SockAddr, error) {
	defer so.s.g.Enter("accept")()
	so.s.mu.Enter()
	defer so.s.mu.Leave()
	tp := so.tcp
	if tp == nil || !tp.listening {
		return nil, com.SockAddr{}, com.ErrInval
	}
	for len(tp.acceptQ) == 0 {
		if so.closed || tp.state == tcpsClosed {
			return nil, com.SockAddr{}, com.ErrBadF
		}
		so.s.sleep(tp.acceptEvent, "accept")
	}
	child := tp.acceptQ[0]
	removePCB(&tp.acceptQ, child) // in place: the queue keeps its storage
	ns := &socket{s: so.s, tcp: child}
	ns.Init()
	peer := com.SockAddr{Family: com.AFInet, Port: child.fport}
	copy(peer.Addr[:], child.faddr[:])
	return ns, peer, nil
}

// Read implements com.Socket.
func (so *socket) Read(buf []byte) (uint, error) {
	defer so.s.g.Enter("soread")()
	so.s.mu.Enter()
	defer so.s.mu.Leave()
	if so.udp != nil {
		n, _, _, err := so.s.udpRecv(so.udp, buf)
		return uint(n), bsdglue.COMError(err)
	}
	return so.readTCP(buf)
}

// Write implements com.Socket, blocking for send-buffer space.
func (so *socket) Write(buf []byte) (uint, error) {
	defer so.s.g.Enter("sowrite")()
	so.s.mu.Enter()
	defer so.s.mu.Leave()
	if so.udp != nil {
		if so.udp.fport == 0 {
			return 0, com.ErrNotConn
		}
		if err := so.s.udpOutput(so.udp, buf, so.udp.faddr, so.udp.fport); err != nil {
			return 0, bsdglue.COMError(err)
		}
		return uint(len(buf)), nil
	}
	return so.writeTCP(buf)
}

// writeTCP is the stream send under Write and sendfile's copy fallback:
// append as room opens, drive output.  Called inside an entry.
func (so *socket) writeTCP(buf []byte) (uint, error) {
	tp := so.tcp
	s := so.s
	total := uint(0)
	for len(buf) > 0 {
		if tp.err != 0 {
			return total, bsdglue.COMError(tp.err)
		}
		switch tp.state {
		case tcpsEstablished, tcpsCloseWait:
		default:
			return total, com.ErrPipe
		}
		space := tp.sndBuf.space()
		if space == 0 {
			tp.armPersistIfNeeded()
			s.sleep(tp.sndBuf.event, "sowrite")
			continue
		}
		n := min(space, len(buf))
		if !tp.sndBuf.appendData(buf[:n]) {
			return total, com.ErrNoMem
		}
		buf = buf[n:]
		total += uint(n)
		s.tcpOutput(tp)
	}
	return total, nil
}

// RecvFrom implements com.Socket (datagram).
func (so *socket) RecvFrom(buf []byte) (uint, com.SockAddr, error) {
	defer so.s.g.Enter("recvfrom")()
	so.s.mu.Enter()
	defer so.s.mu.Leave()
	if so.udp == nil {
		n, err := so.readTCP(buf)
		a := com.SockAddr{Family: com.AFInet}
		so.tcp.peerAddr(&a)
		return n, a, err
	}
	n, from, port, err := so.s.udpRecv(so.udp, buf)
	addr := com.SockAddr{Family: com.AFInet, Port: port}
	copy(addr.Addr[:], from[:])
	return uint(n), addr, bsdglue.COMError(err)
}

// readTCP is the stream receive under Read and RecvFrom.  Called
// inside an entry.
func (so *socket) readTCP(buf []byte) (uint, error) {
	tp := so.tcp
	s := so.s
	for {
		if tp.rcvBuf.cc > 0 {
			n := tp.rcvBuf.read(buf)
			// Window update: tell the peer when substantial room
			// reopens (BSD's tcp_output-after-PRU_RCVD behaviour).
			if tp.state != tcpsClosed &&
				seqGEQ(tp.rcvNxt+tp.rcvWindow(), tp.rcvAdv+2*tp.maxSeg) {
				s.tcpRespondACK(tp)
			}
			return uint(n), nil
		}
		if tp.err != 0 {
			return 0, bsdglue.COMError(tp.err)
		}
		switch tp.state {
		case tcpsCloseWait, tcpsClosing, tcpsLastAck, tcpsTimeWait, tcpsClosed:
			return 0, nil // orderly EOF
		}
		if so.closed {
			return 0, com.ErrBadF
		}
		s.sleep(tp.rcvBuf.event, "soread")
	}
}

// SendTo implements com.Socket (datagram).
func (so *socket) SendTo(buf []byte, to com.SockAddr) (uint, error) {
	defer so.s.g.Enter("sendto")()
	so.s.mu.Enter()
	defer so.s.mu.Leave()
	if so.udp == nil {
		return 0, com.ErrInval
	}
	var dst IPAddr
	copy(dst[:], to.Addr[:])
	if err := so.s.udpOutput(so.udp, buf, dst, to.Port); err != nil {
		return 0, bsdglue.COMError(err)
	}
	return uint(len(buf)), nil
}

// Shutdown implements com.Socket.
func (so *socket) Shutdown(how int) error {
	defer so.s.g.Enter("shutdown")()
	so.s.mu.Enter()
	defer so.s.mu.Leave()
	tp := so.tcp
	if tp == nil {
		return nil
	}
	if how == com.ShutWrite || how == com.ShutBoth {
		switch tp.state {
		case tcpsEstablished:
			tp.state = tcpsFinWait1
			so.s.tcpOutput(tp)
		case tcpsCloseWait:
			tp.state = tcpsLastAck
			so.s.tcpOutput(tp)
		}
	}
	if how == com.ShutRead || how == com.ShutBoth {
		tp.rcvBuf.flush()
		so.s.g.Wakeup(tp.rcvBuf.event)
	}
	return nil
}

// GetSockName implements com.Socket.
func (so *socket) GetSockName() (com.SockAddr, error) {
	defer so.s.g.Enter("getsockname")()
	so.s.mu.Enter()
	defer so.s.mu.Leave()
	a := com.SockAddr{Family: com.AFInet}
	if so.tcp != nil {
		copy(a.Addr[:], so.tcp.laddr[:])
		a.Port = so.tcp.lport
	} else {
		copy(a.Addr[:], so.udp.laddr[:])
		a.Port = so.udp.lport
	}
	return a, nil
}

// GetPeerName implements com.Socket.
func (so *socket) GetPeerName() (com.SockAddr, error) {
	defer so.s.g.Enter("getpeername")()
	so.s.mu.Enter()
	defer so.s.mu.Leave()
	return so.peerLocked()
}

// peerLocked reads the foreign endpoint; the caller holds the stack
// lock.
func (so *socket) peerLocked() (com.SockAddr, error) {
	a := com.SockAddr{Family: com.AFInet}
	switch {
	case so.tcp != nil && so.tcp.peerAddr(&a):
	case so.udp != nil && so.udp.fport != 0:
		copy(a.Addr[:], so.udp.faddr[:])
		a.Port = so.udp.fport
	default:
		return a, com.ErrNotConn
	}
	return a, nil
}

// peerAddr fills a with the connection's foreign endpoint and reports
// whether there is one; the caller holds the stack lock.
func (tp *tcpcb) peerAddr(a *com.SockAddr) bool {
	if tp.fport == 0 {
		return false
	}
	copy(a.Addr[:], tp.faddr[:])
	a.Port = tp.fport
	return true
}

// SetSockOpt implements com.Socket.
func (so *socket) SetSockOpt(name string, value int) error {
	defer so.s.g.Enter("setsockopt")()
	so.s.mu.Enter()
	defer so.s.mu.Leave()
	switch name {
	case "reuseaddr":
		so.reuse = value != 0
		return nil
	case "rcvbuf", "sndbuf":
		if value <= 0 {
			return com.ErrInval
		}
	}
	if so.tcp == nil {
		switch name {
		case "rcvbuf":
			so.udp.rcvLimit = value
		case "sndbuf":
		default:
			return com.ErrInval
		}
		return nil
	}
	switch name {
	case "rcvbuf":
		so.tcp.rcvBuf.hiwat = value
	case "sndbuf":
		so.tcp.sndBuf.hiwat = value
	case "nodelay":
		so.tcp.nodelay = value != 0
	default:
		return com.ErrInval
	}
	return nil
}

// GetSockOpt implements com.Socket.
func (so *socket) GetSockOpt(name string) (int, error) {
	defer so.s.g.Enter("getsockopt")()
	so.s.mu.Enter()
	defer so.s.mu.Leave()
	switch name {
	case "rcvbuf":
		if so.tcp != nil {
			return so.tcp.rcvBuf.hiwat, nil
		}
		return so.udp.rcvLimit, nil
	case "sndbuf":
		if so.tcp != nil {
			return so.tcp.sndBuf.hiwat, nil
		}
		return 0, com.ErrInval
	case "nodelay":
		if so.tcp != nil && so.tcp.nodelay {
			return 1, nil
		}
		return 0, nil
	case "reuseaddr":
		if so.reuse {
			return 1, nil
		}
		return 0, nil
	}
	return 0, com.ErrInval
}

// Close implements com.Socket: orderly TCP close, immediate UDP detach.
func (so *socket) Close() error {
	defer so.s.g.Enter("soclose")()
	so.s.mu.Enter()
	defer so.s.mu.Leave()
	if so.closed {
		return com.ErrBadF
	}
	if so.udp != nil {
		so.closed = true
		so.udp.closed = true
		so.s.g.Wakeup(so.udp.rcvEvent)
		so.s.udpDetach(so.udp)
		return nil
	}
	so.closed = true
	so.tcp.usrClose()
	return nil
}

var _ com.Socket = (*socket)(nil)
