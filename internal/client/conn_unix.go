//go:build unix

package client

import "syscall"

// peeker is a connection's non-blocking peek, built at its first use.
type peeker struct {
	rc  syscall.RawConn
	fn  func(fd uintptr) bool
	err error // fn's
}

// idleOK reports, with one non-blocking peek, whether the server has
// neither closed an idle connection nor sent anything on it unasked.
func (c *conn) idleOK() bool {
	p := &c.peek
	if p.fn == nil {
		rc, err := c.Conn.(syscall.Conn).SyscallConn()
		if err != nil {
			return false
		}
		var b [1]byte
		p.rc, p.fn = rc, func(fd uintptr) bool {
			_, _, p.err = syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
			return true
		}
	}
	return p.rc.Read(p.fn) == nil && p.err == syscall.EAGAIN
}
