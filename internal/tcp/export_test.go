package tcp

import "time"

// Accessors for the external tests of this package.

// CongestionWindow returns the current cwnd in bytes.
func (c *Conn) CongestionWindow() int { return c.cwnd }

// RTO returns the current retransmission timeout.
func (c *Conn) RTO() time.Duration { return c.rto }

// SRTT returns the smoothed round-trip estimate.
func (c *Conn) SRTT() time.Duration { return c.srtt }

// ConnCount returns the number of live connections.
func (s *Stack) ConnCount() int { return len(s.conns) }
