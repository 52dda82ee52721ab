// Package httpd is a minimal HTTP/1.1 static file server over the
// kit's POSIX layer (E15): the paper's §3.8 file server surfaced as a
// network service.  The request parser is deliberately strict and
// fail-closed — it is the fuzzed boundary between the hostile wire and
// the file system — and the serving path goes through libc.Sendfile,
// so a zero-copy-configured stack moves file bytes from the buffer
// cache to the NIC without a payload copy while a default stack serves
// the identical wire image through its ordinary copy path.
package httpd

import (
	"errors"
	"strings"
)

// Parser limits: requests beyond them are rejected, never truncated.
const (
	// MaxRequestLine bounds the first line (method + target + version).
	MaxRequestLine = 4096
	// MaxHeaderBytes bounds the whole request head, terminator included.
	MaxHeaderBytes = 8192
	// MaxHeaders bounds the header count (folded continuations count
	// against the header they extend).
	MaxHeaders = 64
	// MaxTarget bounds the request-target.
	MaxTarget = 2048
)

// ErrMalformed is the parser's single rejection: any syntactic or
// limit violation fails closed with it (the server answers 400 and
// drops the connection; no partial parse is ever acted on).
var ErrMalformed = errors.New("httpd: malformed request")

// Header is one parsed header field.
type Header struct {
	Name  string // as sent (use EqualFold to match)
	Value string // trimmed; folded continuations joined with one space
}

// Request is one parsed request head.
type Request struct {
	Method  string
	Target  string // raw request-target as validated (origin-form)
	Path    string // Target with any query string stripped
	Proto   string // "HTTP/1.0" or "HTTP/1.1"
	Headers []Header

	// KeepAlive is the connection's persistence after this exchange:
	// HTTP/1.1 unless "Connection: close", HTTP/1.0 only with
	// "Connection: keep-alive".
	KeepAlive bool

	// ContentLength is the declared body size (0 when absent).  The
	// static server refuses request bodies, but the parser reports the
	// declaration so the refusal is deliberate, not accidental.
	ContentLength uint64
}

// Header returns the value of the first header matching name
// (case-insensitive), with ok reporting presence.
func (r *Request) Header(name string) (string, bool) {
	for _, h := range r.Headers {
		if strings.EqualFold(h.Name, name) {
			return h.Value, true
		}
	}
	return "", false
}

// ParseRequest parses one request head.  head is everything up to and
// including the blank line that terminates the header block (the
// terminator may be absent if the input simply ends there).  Any
// violation — oversized lines, bad tokens, control bytes, duplicate
// conflicting Content-Length, a Transfer-Encoding of any kind —
// returns ErrMalformed; the function never panics on any input.
func ParseRequest(head []byte) (*Request, error) {
	if len(head) > MaxHeaderBytes {
		return nil, ErrMalformed
	}
	lines, err := splitHead(head)
	if err != nil || len(lines) == 0 {
		return nil, ErrMalformed
	}
	req, err := parseRequestLine(lines[0])
	if err != nil {
		return nil, ErrMalformed
	}
	if err := parseHeaders(req, lines[1:]); err != nil {
		return nil, ErrMalformed
	}

	// Connection semantics.
	req.KeepAlive = req.Proto == "HTTP/1.1"
	if v, ok := req.Header("Connection"); ok {
		switch {
		case tokenListHas(v, "close"):
			req.KeepAlive = false
		case tokenListHas(v, "keep-alive"):
			req.KeepAlive = true
		}
	}

	// Body framing: any Transfer-Encoding fails closed (this server
	// never accepts one); Content-Length must be a single consistent
	// decimal.
	if _, ok := req.Header("Transfer-Encoding"); ok {
		return nil, ErrMalformed
	}
	seenCL := false
	for _, h := range req.Headers {
		if !strings.EqualFold(h.Name, "Content-Length") {
			continue
		}
		n, ok := parseDecimal(h.Value)
		if !ok {
			return nil, ErrMalformed
		}
		if seenCL && n != req.ContentLength {
			return nil, ErrMalformed
		}
		req.ContentLength = n
		seenCL = true
	}
	return req, nil
}

// splitHead breaks the head into logical lines, joining obs-fold
// continuations (a line starting with SP or HTAB extends the previous
// header, RFC 7230 §3.2.4) onto their field with a single space.
func splitHead(head []byte) ([]string, error) {
	// One conversion for the whole head; each line is a substring of it.
	rest := string(head)
	lines := make([]string, 0, 8)
	for len(rest) > 0 {
		i := strings.IndexByte(rest, '\n')
		var raw string
		if i < 0 {
			raw, rest = rest, ""
		} else {
			raw, rest = rest[:i], rest[i+1:]
		}
		if n := len(raw); n > 0 && raw[n-1] == '\r' {
			raw = raw[:n-1]
		}
		if len(raw) == 0 {
			break // blank line: end of head (anything after is not ours)
		}
		if raw[0] == ' ' || raw[0] == '\t' {
			if len(lines) < 2 {
				return nil, ErrMalformed
			}
			lines[len(lines)-1] += " " + strings.Trim(raw, " \t")
			continue
		}
		if len(lines) > MaxHeaders {
			return nil, ErrMalformed
		}
		lines = append(lines, raw)
	}
	return lines, nil
}

// parseRequestLine handles "METHOD SP request-target SP HTTP-version".
func parseRequestLine(line string) (*Request, error) {
	if len(line) > MaxRequestLine {
		return nil, ErrMalformed
	}
	sp1 := strings.IndexByte(line, ' ')
	if sp1 <= 0 {
		return nil, ErrMalformed
	}
	sp2 := strings.LastIndexByte(line, ' ')
	if sp2 <= sp1 {
		return nil, ErrMalformed
	}
	method, target, proto := line[:sp1], line[sp1+1:sp2], line[sp2+1:]
	if !isToken(method) || len(method) > 16 {
		return nil, ErrMalformed
	}
	if proto != "HTTP/1.0" && proto != "HTTP/1.1" {
		return nil, ErrMalformed
	}
	if len(target) == 0 || len(target) > MaxTarget || target[0] != '/' {
		return nil, ErrMalformed
	}
	for i := 0; i < len(target); i++ {
		if c := target[i]; c <= ' ' || c >= 0x7f {
			return nil, ErrMalformed
		}
	}
	path := target
	if q := strings.IndexByte(target, '?'); q >= 0 {
		path = target[:q]
	}
	return &Request{Method: method, Target: target, Path: path, Proto: proto}, nil
}

// parseHeaders fills req.Headers from "Name: value" lines.
func parseHeaders(req *Request, lines []string) error {
	req.Headers = make([]Header, 0, len(lines))
	for _, line := range lines {
		colon := strings.IndexByte(line, ':')
		if colon <= 0 {
			return ErrMalformed
		}
		name := line[:colon]
		if !isToken(name) {
			return ErrMalformed // includes whitespace-before-colon smuggling
		}
		value := strings.Trim(line[colon+1:], " \t")
		for i := 0; i < len(value); i++ {
			if c := value[i]; c < ' ' && c != '\t' || c == 0x7f {
				return ErrMalformed
			}
		}
		req.Headers = append(req.Headers, Header{Name: name, Value: value})
	}
	return nil
}

// isToken reports whether s is a non-empty RFC 7230 token.
func isToken(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case strings.IndexByte("!#$%&'*+-.^_`|~", c) >= 0:
		default:
			return false
		}
	}
	return true
}

// tokenListHas reports whether the comma-separated list contains token
// (case-insensitive).
func tokenListHas(list, token string) bool {
	for list != "" {
		t, rest, _ := strings.Cut(list, ",")
		if strings.EqualFold(strings.Trim(t, " \t"), token) {
			return true
		}
		list = rest
	}
	return false
}

// parseDecimal parses a non-negative decimal with overflow detection.
func parseDecimal(s string) (uint64, bool) {
	if s == "" || len(s) > 19 {
		return 0, false
	}
	var n uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	return n, true
}
