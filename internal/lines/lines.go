// Package lines frames the line protocols on the proxy host — the SP
// command port (thesis §5.3) and the EEM variable protocol (§6.2) —
// out of a byte stream, under one size bound per protocol. A session
// does not know its transport: it is fed inbound bytes and answers on
// a Conn, which is a simulated TCP connection in the experiments and a
// real socket behind the realtime driver in the daemons, so both meet
// the same rules.
package lines

import "bytes"

// Conn is the byte stream a session runs over.
type Conn interface {
	// Write sends bytes toward the peer.
	Write(b []byte) error
	// Close tears the stream down gracefully.
	Close()
	// Abort severs the stream at once (a reset where the transport
	// has one).
	Abort()
}

// New starts a session on conn and returns its data callback: feed it
// the stream's inbound bytes in any split. Each line ends at '\n' and
// loses one trailing '\r'; line receives it, valid only for the call.
// An error from line ends the session: the conn cannot answer, so the
// rest of the stream is ignored.
//
// A line may hold max bytes (a trailing '\r' counts). A longer line is
// not buffered: its bytes are dropped up to its newline, diag (if
// non-empty) is written once, and the session reads on. A line that
// runs a further max bytes without a newline is an unframed flood:
// diag is written and conn aborted, because reading on is the denial
// of service. The session never holds more than max bytes, and what it
// does depends only on the byte stream, not on how it was split.
func New(conn Conn, max int, diag []byte, line func([]byte) error) func(data []byte) {
	s := &session{conn: conn, max: max, diag: diag, line: line}
	return s.feed
}

type session struct {
	conn Conn
	max  int
	diag []byte
	line func([]byte) error
	buf  []byte // the current line's bytes while it is within max
	n    int    // the current line's length so far, dropped bytes included
	done bool
}

func (s *session) feed(data []byte) {
	for !s.done && len(data) > 0 {
		// Only the new bytes are searched: buf holds no newline.
		i := bytes.IndexByte(data, '\n')
		part := data
		if i >= 0 {
			part, data = data[:i], data[i+1:]
		}
		s.n += len(part)
		if s.n > 2*s.max {
			s.stop()
			s.write(s.diag)
			s.conn.Abort()
			return
		}
		if s.n > s.max {
			s.buf = s.buf[:0]
		} else if i < 0 || len(s.buf) > 0 {
			s.buf = append(s.buf, part...)
		}
		if i < 0 {
			return
		}
		var err error
		if s.n > s.max {
			err = s.write(s.diag)
		} else {
			if len(s.buf) > 0 {
				part = s.buf
			}
			err = s.line(bytes.TrimSuffix(part, []byte{'\r'}))
		}
		s.buf, s.n = s.buf[:0], 0
		if err != nil {
			s.stop()
		}
	}
}

func (s *session) write(b []byte) error {
	if len(b) == 0 {
		return nil
	}
	return s.conn.Write(b)
}

func (s *session) stop() {
	s.done = true
	s.buf = nil
}
