package lines

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// recConn logs what a session does, in order: lines it delivered
// ("L:"), bytes it wrote ("W:") and an abort ("A").
type recConn struct{ log []string }

func (c *recConn) Write(b []byte) error { c.log = append(c.log, "W:"+string(b)); return nil }
func (c *recConn) Close()               {}
func (c *recConn) Abort()               { c.log = append(c.log, "A") }

var errQuit = errors.New("quit")

// run feeds stream to a fresh session in the given chunk sizes (the
// remainder goes in one last call) and returns its log. The line
// "quit" fails its handler, which ends the session.
func run(stream []byte, max int, sizes []int) []string {
	c := &recConn{}
	feed := New(c, max, []byte("too long\n"), func(l []byte) error {
		c.log = append(c.log, "L:"+string(l))
		if string(l) == "quit" {
			return errQuit
		}
		return nil
	})
	for _, n := range sizes {
		if n > len(stream) {
			n = len(stream)
		}
		feed(stream[:n])
		stream = stream[n:]
	}
	feed(stream)
	return c.log
}

// model is the session's contract written out line by line over the
// whole stream.
func model(stream []byte, max int) []string {
	var log []string
	parts := bytes.Split(stream, []byte{'\n'})
	for i, p := range parts {
		framed := i < len(parts)-1
		switch {
		case len(p) > 2*max:
			return append(log, "W:too long\n", "A")
		case !framed:
			return log
		case len(p) > max:
			log = append(log, "W:too long\n")
		default:
			l := string(bytes.TrimSuffix(p, []byte{'\r'}))
			log = append(log, "L:"+l)
			if l == "quit" {
				return log
			}
		}
	}
	return log
}

func TestSessionFraming(t *testing.T) {
	cases := []struct {
		name   string
		stream string
		want   []string
	}{
		{"lines and CRLF", "help\r\nload x\n\n", []string{"L:help", "L:load x", "L:"}},
		{"partial line waits", "hel", nil},
		{"line at the bound", "12345678\n", []string{"L:12345678"}},
		{"framed over-long line lives", "123456789\nok\n", []string{"W:too long\n", "L:ok"}},
		{"flood aborts", strings.Repeat("x", 17) + "\nok\n", []string{"W:too long\n", "A"}},
		{"handler error ends session", "quit\nok\n", []string{"L:quit"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, sizes := range [][]int{nil, {1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, {3, 5}} {
				got := run([]byte(tc.stream), 8, sizes)
				if strings.Join(got, "|") != strings.Join(tc.want, "|") {
					t.Fatalf("split %v: log %q, want %q", sizes, got, tc.want)
				}
			}
		})
	}
}

// TestSessionHoldsAtMostMax pins the memory bound: however long the
// unframed line, the session buffers no more than max bytes of it.
func TestSessionHoldsAtMostMax(t *testing.T) {
	c := &recConn{}
	s := &session{conn: c, max: 64, diag: []byte("too long\n"), line: func([]byte) error { return nil }}
	chunk := bytes.Repeat([]byte("x"), 7)
	for i := 0; i < 100 && !s.done; i++ {
		s.feed(chunk)
		if len(s.buf) > s.max {
			t.Fatalf("after %d bytes the session holds %d, bound %d", (i+1)*len(chunk), len(s.buf), s.max)
		}
	}
	if !s.done || s.buf != nil || strings.Join(c.log, "|") != "W:too long\n|A" {
		t.Fatalf("flood: done=%v held=%d log=%q", s.done, len(s.buf), c.log)
	}
}

// FuzzLineSession checks that any split of one stream into data
// callbacks yields exactly what feeding it whole does, and that both
// match the line-by-line model — so an oversized line draws exactly
// one diagnostic wherever its bytes were cut.
func FuzzLineSession(f *testing.F) {
	f.Add([]byte("help\r\nload x\n"), []byte{2, 3})
	f.Add([]byte("123456789\nok\n"), []byte{9, 1})
	f.Add([]byte(strings.Repeat("y", 20)+"\n"), []byte{8, 8, 8})
	f.Add([]byte("quit\nok\n"), []byte{1})
	f.Fuzz(func(t *testing.T, stream, split []byte) {
		const max = 8
		sizes := make([]int, len(split))
		for i, b := range split {
			sizes[i] = int(b % 32)
		}
		whole := run(stream, max, nil)
		want := model(stream, max)
		if strings.Join(whole, "|") != strings.Join(want, "|") {
			t.Fatalf("whole stream %q: log %q, model %q", stream, whole, want)
		}
		if got := run(stream, max, sizes); strings.Join(got, "|") != strings.Join(whole, "|") {
			t.Fatalf("stream %q split %v: log %q, whole %q", stream, sizes, got, whole)
		}
	})
}
