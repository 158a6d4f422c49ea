//go:build !unix

package client

type peeker struct{}

// idleOK cannot peek at the socket here. A request on a connection the
// server dropped while idle then fails, and is retried only where the
// retry rule allows.
func (c *conn) idleOK() bool { return true }
