//go:build unix

package client

import "syscall"

// idleOK reports, with one non-blocking peek, whether the server has
// neither closed an idle connection nor sent anything on it unasked.
func (c *conn) idleOK() bool {
	rc, err := c.Conn.(syscall.Conn).SyscallConn()
	var perr error
	if err == nil {
		err = rc.Read(func(fd uintptr) bool {
			var b [1]byte
			_, _, perr = syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
			return true
		})
	}
	return err == nil && perr == syscall.EAGAIN
}
