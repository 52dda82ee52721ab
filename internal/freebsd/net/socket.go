package bsdnet

import "oskit/internal/com"

// The socket layer: the COM Socket/SocketFactory exported by the stack
// (§5).  Every method is a component entry point: it manufactures a
// current process (§4.7.5), raises splnet, and blocks — if it must —
// with a two-phase sleep on the pcb's events.
//
// SMP entry discipline (locks.go): Read and Write on an established TCP
// socket take only the pcb lock — they are the scaling-critical paths
// and share nothing with the stack's global state.  Every other entry
// point takes the stack lock (and the pcb lock around pcb mutations).
// Blocking always uses SleepPrepare under the condition locks, drops
// them, then SleepCommit — the lost-wakeup-free replacement for
// "enqueue at raised spl, drop to spl0".

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
	restore := s.g.Enter("socket")
	defer restore()
	spl := s.g.Splnet()
	defer s.g.Splx(spl)
	sock := &socket{s: s}
	sock.Init()
	s.mu.Lock()
	defer s.mu.Unlock()
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

	// reuse is stack-lock state (only bind/setsockopt touch it).
	// closed is written under the stack lock AND (for TCP) the pcb lock,
	// so either's holder may read it — the pcb-lock-only Read/Write
	// loops included.
	reuse  bool
	closed bool
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

// enter is the standard component prologue; the returned func is the
// epilogue.
func (so *socket) enter(what string) func() {
	restore := so.s.g.Enter(what)
	spl := so.s.g.Splnet()
	return func() {
		so.s.g.Splx(spl)
		restore()
	}
}

// Bind implements com.Socket.
func (so *socket) Bind(addr com.SockAddr) error {
	done := so.enter("bind")
	defer done()
	so.s.mu.Lock()
	defer so.s.mu.Unlock()
	if so.closed {
		return com.ErrBadF
	}
	if so.tcp != nil {
		so.tcp.mu.Lock()
		defer so.tcp.mu.Unlock()
		return so.s.tcpBind(so.tcp, addr.Port, so.reuse)
	}
	return so.s.udpBind(so.udp, addr.Port)
}

// Connect implements com.Socket: for TCP it blocks until the handshake
// completes or fails.
func (so *socket) Connect(addr com.SockAddr) error {
	done := so.enter("connect")
	defer done()
	s := so.s
	s.mu.Lock()
	if so.closed {
		s.mu.Unlock()
		return com.ErrBadF
	}
	if so.udp != nil {
		var dst IPAddr
		copy(dst[:], addr.Addr[:])
		err := s.udpConnect(so.udp, dst, addr.Port)
		s.mu.Unlock()
		return err
	}
	tp := so.tcp
	var dst IPAddr
	copy(dst[:], addr.Addr[:])
	tp.mu.Lock()
	err := tp.usrConnect(dst, addr.Port)
	tp.mu.Unlock()
	if err != nil {
		s.mu.Unlock()
		return err
	}
	// Wait under the stack lock (state/err are readable there; writers
	// hold both locks), sleeping two-phase across the unlock.
	for tp.state != tcpsEstablished {
		if tp.err != 0 {
			tp.mu.Lock()
			err := tp.err
			tp.err = 0
			tp.mu.Unlock()
			s.mu.Unlock()
			if err == com.ErrConnReset {
				return com.ErrConnRef // RST during handshake = refused
			}
			return err
		}
		if tp.state == tcpsClosed {
			s.mu.Unlock()
			return com.ErrConnRef
		}
		p := s.g.SleepPrepare(tp.connEvent, "connec")
		s.mu.Unlock()
		s.g.SleepCommit(p)
		s.mu.Lock()
	}
	s.mu.Unlock()
	return nil
}

// Listen implements com.Socket.
func (so *socket) Listen(backlog int) error {
	done := so.enter("listen")
	defer done()
	if so.tcp == nil {
		return com.ErrInval
	}
	so.s.mu.Lock()
	defer so.s.mu.Unlock()
	so.tcp.mu.Lock()
	defer so.tcp.mu.Unlock()
	return so.tcp.usrListen(backlog)
}

// Accept implements com.Socket.
func (so *socket) Accept() (com.Socket, com.SockAddr, error) {
	done := so.enter("accept")
	defer done()
	tp := so.tcp
	s := so.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if tp == nil || !tp.listening {
		return nil, com.SockAddr{}, com.ErrInval
	}
	for len(tp.acceptQ) == 0 {
		if so.closed || tp.state == tcpsClosed {
			return nil, com.SockAddr{}, com.ErrBadF
		}
		p := s.g.SleepPrepare(tp.acceptEvent, "accept")
		s.mu.Unlock()
		s.g.SleepCommit(p)
		s.mu.Lock()
	}
	child := tp.acceptQ[0]
	tp.acceptQ = tp.acceptQ[1:]
	ns := &socket{s: so.s, tcp: child}
	ns.Init()
	peer := com.SockAddr{Family: com.AFInet, Port: child.fport}
	copy(peer.Addr[:], child.faddr[:])
	return ns, peer, nil
}

// Read implements com.Socket.  The TCP path takes only the pcb lock —
// the scaling-critical entry, sharing nothing with the stack's global
// state.
func (so *socket) Read(buf []byte) (uint, error) {
	done := so.enter("soread")
	defer done()
	if so.udp != nil {
		so.s.mu.Lock()
		n, _, _, err := so.s.udpRecv(so.udp, buf)
		so.s.mu.Unlock()
		return uint(n), err
	}
	return so.readTCP(buf)
}

// Write implements com.Socket, blocking for send-buffer space.  The TCP
// path takes only the pcb lock, like Read.
func (so *socket) Write(buf []byte) (uint, error) {
	done := so.enter("sowrite")
	defer done()
	if so.udp != nil {
		so.s.mu.Lock()
		defer so.s.mu.Unlock()
		if so.udp.fport == 0 {
			return 0, com.ErrNotConn
		}
		if err := so.s.udpOutput(so.udp, buf, so.udp.faddr, so.udp.fport); err != nil {
			return 0, err
		}
		return uint(len(buf)), nil
	}
	return so.writeTCP(buf)
}

// writeTCP is the stream send under Write and sendfile's copy fallback:
// append as room opens, drive output.  Takes the pcb lock itself.
func (so *socket) writeTCP(buf []byte) (uint, error) {
	tp := so.tcp
	tp.mu.Lock()
	defer tp.mu.Unlock()
	total := uint(0)
	for len(buf) > 0 {
		if tp.err != 0 {
			return total, tp.err
		}
		switch tp.state {
		case tcpsEstablished, tcpsCloseWait:
		default:
			return total, com.ErrPipe
		}
		space := tp.sndBuf.space()
		if space == 0 {
			tp.armPersistIfNeeded()
			p := so.s.g.SleepPrepare(tp.sndBuf.event, "sowrite")
			tp.mu.Unlock()
			so.s.g.SleepCommit(p)
			tp.mu.Lock()
			continue
		}
		n := min(space, len(buf))
		if !tp.sndBuf.appendData(buf[:n]) {
			return total, com.ErrNoMem
		}
		buf = buf[n:]
		total += uint(n)
		so.s.tcpOutput(tp)
	}
	return total, nil
}

// RecvFrom implements com.Socket (datagram).
func (so *socket) RecvFrom(buf []byte) (uint, com.SockAddr, error) {
	done := so.enter("recvfrom")
	defer done()
	if so.udp == nil {
		n, err := so.readTCP(buf)
		tp := so.tcp
		a := com.SockAddr{Family: com.AFInet}
		tp.mu.Lock()
		tp.peerAddr(&a)
		tp.mu.Unlock()
		return n, a, err
	}
	so.s.mu.Lock()
	n, from, port, err := so.s.udpRecv(so.udp, buf)
	so.s.mu.Unlock()
	addr := com.SockAddr{Family: com.AFInet, Port: port}
	copy(addr.Addr[:], from[:])
	return uint(n), addr, err
}

// readTCP is the stream receive under Read and RecvFrom; takes the pcb
// lock itself.
func (so *socket) readTCP(buf []byte) (uint, error) {
	tp := so.tcp
	tp.mu.Lock()
	defer tp.mu.Unlock()
	for {
		if tp.rcvBuf.cc > 0 {
			n := tp.rcvBuf.read(buf)
			// Window update: tell the peer when substantial room
			// reopens (BSD's tcp_output-after-PRU_RCVD behaviour).
			if tp.state != tcpsClosed &&
				seqGEQ(tp.rcvNxt+tp.rcvWindow(), tp.rcvAdv+2*tp.maxSeg) {
				so.s.tcpRespondACK(tp)
			}
			return uint(n), nil
		}
		if tp.err != 0 {
			return 0, tp.err
		}
		switch tp.state {
		case tcpsCloseWait, tcpsClosing, tcpsLastAck, tcpsTimeWait, tcpsClosed:
			return 0, nil // orderly EOF
		}
		if so.closed {
			return 0, com.ErrBadF
		}
		p := so.s.g.SleepPrepare(tp.rcvBuf.event, "soread")
		tp.mu.Unlock()
		so.s.g.SleepCommit(p)
		tp.mu.Lock()
	}
}

// SendTo implements com.Socket (datagram).
func (so *socket) SendTo(buf []byte, to com.SockAddr) (uint, error) {
	done := so.enter("sendto")
	defer done()
	if so.udp == nil {
		return 0, com.ErrInval
	}
	var dst IPAddr
	copy(dst[:], to.Addr[:])
	so.s.mu.Lock()
	defer so.s.mu.Unlock()
	if err := so.s.udpOutput(so.udp, buf, dst, to.Port); err != nil {
		return 0, err
	}
	return uint(len(buf)), nil
}

// Shutdown implements com.Socket.
func (so *socket) Shutdown(how int) error {
	done := so.enter("shutdown")
	defer done()
	tp := so.tcp
	if tp == nil {
		return nil
	}
	so.s.mu.Lock()
	defer so.s.mu.Unlock()
	tp.mu.Lock()
	defer tp.mu.Unlock()
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
	done := so.enter("getsockname")
	defer done()
	so.s.mu.Lock()
	defer so.s.mu.Unlock()
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
	done := so.enter("getpeername")
	defer done()
	so.s.mu.Lock()
	defer so.s.mu.Unlock()
	return so.peerLocked()
}

// peerLocked reads the foreign endpoint; the caller holds the stack
// lock or the pcb lock (identity is readable under either).
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
// whether there is one; the caller holds tp.mu or the stack lock.
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
	done := so.enter("setsockopt")
	defer done()
	so.s.mu.Lock()
	defer so.s.mu.Unlock()
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
	so.tcp.mu.Lock()
	defer so.tcp.mu.Unlock()
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
	done := so.enter("getsockopt")
	defer done()
	so.s.mu.Lock()
	defer so.s.mu.Unlock()
	if so.tcp != nil {
		so.tcp.mu.Lock()
		defer so.tcp.mu.Unlock()
	}
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
	done := so.enter("soclose")
	defer done()
	so.s.mu.Lock()
	defer so.s.mu.Unlock()
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
	// closed is read by the pcb-lock-only Read/Write loops, so the write
	// holds both locks.
	so.tcp.mu.Lock()
	so.closed = true
	so.tcp.mu.Unlock()
	so.tcp.usrClose()
	return nil
}

var _ com.Socket = (*socket)(nil)
