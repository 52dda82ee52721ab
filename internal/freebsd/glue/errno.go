package bsdglue

import "oskit/internal/com"

// Errno is a BSD kernel error number (FreeBSD values), the only error
// BSD donor code returns; a component's glue translates it with
// COMError where it leaves through a COM interface.
type Errno int

// The error numbers the BSD donors return.
const (
	ENOENT        Errno = 2
	EIO           Errno = 5
	EBADF         Errno = 9
	ENOMEM        Errno = 12
	EINVAL        Errno = 22
	ENOSPC        Errno = 28
	EADDRINUSE    Errno = 48
	EADDRNOTAVAIL Errno = 49
	ECONNRESET    Errno = 54
	ETIMEDOUT     Errno = 60
	ENAMETOOLONG  Errno = 63
)

// comErrors maps each Errno to the COM error it leaves as.
var comErrors = [...]error{
	ENOENT: com.ErrNoEnt, EIO: com.ErrIO, EBADF: com.ErrBadF,
	ENOMEM: com.ErrNoMem, EINVAL: com.ErrInval, ENOSPC: com.ErrNoSpace,
	EADDRINUSE: com.ErrAddrInUse, EADDRNOTAVAIL: com.ErrNoPorts,
	ECONNRESET: com.ErrConnReset, ETIMEDOUT: com.ErrTimedOut,
	ENAMETOOLONG: com.ErrNameLong,
}

// Error implements error with the COM error's text.
func (e Errno) Error() string { return comErrors[e].Error() }

// COMError translates a donor error for return through a COM interface:
// an Errno becomes its com.Error, anything else (nil, or an error that
// already is one) passes unchanged.  It allocates nothing.
func COMError(err error) error {
	if e, ok := err.(Errno); ok {
		return comErrors[e]
	}
	return err
}
