package eem

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/lines"
)

// The EEM wire protocol is one message per line over a byte stream
// (the thesis's "lean data-transfer protocol between client and
// server", §6.1.2). The same codec runs over the simulated TCP stack
// and over real net.Conn in the daemons. A line is a kind word, then
// the fields that kind uses, each after one space, then a newline:
//
//	register <var> <index> <op> <interrupt> <lower> <upper>
//	deregister <var> <index>
//	deregister-all
//	poll <seq> <var> <index>
//	list-vars <seq>
//	poll-reply <seq> <value>
//	var-list <seq> <name>...
//	update <var> <index> <value>...
//	notify <var> <index> <value>
//	error <seq> <code> <text>
//
// A value is a tag and its payload: "l <long>", "d <double>" or
// "s <string>". Integers are decimal; op is the Operator's number and
// interrupt is 0 or 1. A double is written by strconv's 'g' format at
// the shortest precision that reads back to the same float64, so every
// double, -0 and ±Inf included, decodes to the bits written; any NaN
// reads back as math.NaN(). A name or string stands bare when every
// byte is printable ASCII other than '"' and '\', else it is quoted by
// strconv.Quote, which round-trips any byte string; a decoder takes a
// quoted field as strconv.Unquote reads it. No line carries a server
// name: the connection names the server. An error answers the request
// numbered seq (0 for none); code names the sentinel behind it
// (errors.go), "" for none.

// Message kinds.
const (
	msgRegister      = "register"
	msgDeregister    = "deregister"
	msgDeregisterAll = "deregister-all"
	msgPoll          = "poll"
	msgUpdate        = "update" // periodic batch: vars currently in range
	msgNotify        = "notify" // interrupt-style single variable
	msgPollReply     = "poll-reply"
	msgError         = "error"
	msgListVars      = "list-vars"
	msgVarList       = "var-list"
)

// wireMsg is the decoded form of every message; each kind uses the
// fields its line carries and leaves the others zero.
type wireMsg struct {
	Kind string
	// Seq correlates a poll or list-vars with its reply or error.
	Seq int64
	ID  ID
	A   Attr
	V   Value
	// Batch carries the variables of a periodic update.
	Batch []varUpdate
	Err   string
	// Code tags an error with a machine-readable kind so the client
	// can reconstruct the matching typed sentinel (errors.go).
	Code  string
	Names []string
}

// varUpdate is one entry in a periodic update batch.
type varUpdate struct {
	ID ID
	V  Value
}

// encodeMsg renders a message as one line in a slice of its own. The
// transports keep what they are handed (tcp.Conn.Write queues the
// slice itself until it is acknowledged), so a line must never share
// bytes with another: it is built in pooled scratch space and copied
// out, one allocation of exactly its length.
func encodeMsg(m wireMsg) []byte {
	sp := encScratch.Get().(*[]byte)
	b := appendMsg((*sp)[:0], &m)
	line := bytes.Clone(b)
	*sp = b
	encScratch.Put(sp)
	return line
}

var encScratch = sync.Pool{New: func() any { return new([]byte) }}

// appendMsg appends m's line, newline included, to dst.
func appendMsg(dst []byte, m *wireMsg) []byte {
	dst = append(dst, m.Kind...)
	switch m.Kind {
	case msgRegister:
		dst = appendID(dst, m.ID)
		dst = appendInt(dst, int64(m.A.Op))
		interrupt := int64(0)
		if m.A.Interrupt {
			interrupt = 1
		}
		dst = appendInt(dst, interrupt)
		dst = appendValue(dst, m.A.Lower)
		dst = appendValue(dst, m.A.Upper)
	case msgDeregister:
		dst = appendID(dst, m.ID)
	case msgDeregisterAll:
	case msgPoll:
		dst = appendInt(dst, m.Seq)
		dst = appendID(dst, m.ID)
	case msgListVars:
		dst = appendInt(dst, m.Seq)
	case msgPollReply:
		dst = appendInt(dst, m.Seq)
		dst = appendValue(dst, m.V)
	case msgVarList:
		dst = appendInt(dst, m.Seq)
		for _, n := range m.Names {
			dst = appendString(dst, n)
		}
	case msgUpdate:
		for _, u := range m.Batch {
			dst = appendID(dst, u.ID)
			dst = appendValue(dst, u.V)
		}
	case msgNotify:
		dst = appendID(dst, m.ID)
		dst = appendValue(dst, m.V)
	case msgError:
		dst = appendInt(dst, m.Seq)
		dst = appendString(dst, m.Code)
		dst = appendString(dst, m.Err)
	default:
		panic("eem: encode: unknown message kind " + strconv.Quote(m.Kind))
	}
	return append(dst, '\n')
}

func appendInt(dst []byte, n int64) []byte {
	return strconv.AppendInt(append(dst, ' '), n, 10)
}

// appendID writes a variable and its index; the server is the
// connection's.
func appendID(dst []byte, id ID) []byte {
	return appendInt(appendString(dst, id.Var), int64(id.Index))
}

// appendValue writes v's tag and payload. A kind other than Long and
// Double is written as a string, as Value.String renders it.
func appendValue(dst []byte, v Value) []byte {
	switch v.Kind {
	case Long:
		return strconv.AppendInt(append(dst, " l "...), v.L, 10)
	case Double:
		return strconv.AppendFloat(append(dst, " d "...), v.D, 'g', -1, 64)
	}
	return appendString(append(dst, " s"...), v.S)
}

// appendString writes s bare where it may stand bare, else quoted.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, ' ')
	if isBare(s) {
		return append(dst, s...)
	}
	return strconv.AppendQuote(dst, s)
}

// isBare reports whether s may stand bare: it is not empty, and every
// byte is printable ASCII other than '"' and '\'.
func isBare(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c <= ' ' || c >= 0x7f || c == '"' || c == '\\' {
			return false
		}
	}
	return s != ""
}

// decodeMsg reads one line, its newline included, into a fresh
// message. It rejects a line that does not end at its only newline, an
// unknown kind, a missing or extra field and a field that does not
// parse as its type, with an error saying which field. The message's
// strings share one copy of the line.
func decodeMsg(line []byte) (wireMsg, error) {
	if len(line) == 0 || line[len(line)-1] != '\n' {
		return wireMsg{}, errors.New("line does not end in a newline")
	}
	d := decoder{s: string(line)}
	var m wireMsg
	switch m.Kind = d.field(); m.Kind {
	case msgRegister:
		m.ID = d.id()
		m.A.Op = Operator(d.int())
		switch d.field() {
		case "0":
		case "1":
			m.A.Interrupt = true
		default:
			d.fail("interrupt is not 0 or 1")
		}
		m.A.Lower = d.value()
		m.A.Upper = d.value()
	case msgDeregister:
		m.ID = d.id()
	case msgDeregisterAll:
	case msgPoll:
		m.Seq = d.int64()
		m.ID = d.id()
	case msgListVars:
		m.Seq = d.int64()
	case msgPollReply:
		m.Seq = d.int64()
		m.V = d.value()
	case msgVarList:
		m.Seq = d.int64()
		if n := d.left(); n > 0 {
			m.Names = make([]string, 0, n)
		}
		for d.more() {
			m.Names = append(m.Names, d.field())
		}
	case msgUpdate:
		// An entry is four fields.
		if n := d.left() / 4; n > 0 {
			m.Batch = make([]varUpdate, 0, n)
		}
		for d.more() {
			m.Batch = append(m.Batch, varUpdate{ID: d.id(), V: d.value()})
		}
	case msgNotify:
		m.ID = d.id()
		m.V = d.value()
	case msgError:
		m.Seq = d.int64()
		m.Code = d.field()
		m.Err = d.field()
	default:
		d.fail("unknown kind " + strconv.Quote(m.Kind))
	}
	if d.err == nil && d.i != len(d.s)-1 {
		d.n++
		d.fail("extra field")
	}
	if d.err != nil {
		return wireMsg{}, d.err
	}
	return m, nil
}

// decoder is the cursor of decodeMsg. Its error is sticky: after the
// first fault every reader returns a zero value without reading.
type decoder struct {
	s   string // the line, newline included
	i   int    // the byte after the last field read
	n   int    // the fields read, the kind included
	err error
}

func (d *decoder) fail(why string) {
	if d.err == nil {
		d.err = fmt.Errorf("field %d: %s", d.n, why)
	}
}

// more reports whether another field follows.
func (d *decoder) more() bool { return d.err == nil && d.s[d.i] == ' ' }

// left bounds the fields after the cursor: each follows a space, and
// only a quoted field holds more.
func (d *decoder) left() int { return strings.Count(d.s[d.i:], " ") }

// field reads the next field: a bare one as it stands, a quoted one
// unquoted. Every field but the kind follows a space, and ends at a
// space or the newline.
func (d *decoder) field() string {
	if d.err != nil {
		return ""
	}
	if d.n++; d.n > 1 {
		if d.s[d.i] != ' ' {
			d.fail("missing")
			return ""
		}
		d.i++
	}
	rest := d.s[d.i:]
	var f string
	if rest[0] == '"' {
		q, err := strconv.QuotedPrefix(rest)
		if err != nil {
			d.fail("bad quoted string")
			return ""
		}
		f, _ = strconv.Unquote(q)
		d.i += len(q)
		if c := d.s[d.i]; c != ' ' && c != '\n' {
			d.fail("bytes after a quoted string")
			return ""
		}
		return f
	}
	end := 0
	for rest[end] != ' ' && rest[end] != '\n' {
		end++
	}
	f = rest[:end]
	d.i += end
	if !isBare(f) {
		d.fail(strconv.Quote(f) + " must be quoted")
	}
	return f
}

func (d *decoder) int64() int64 {
	f := d.field()
	if d.err != nil {
		return 0
	}
	n, err := strconv.ParseInt(f, 10, 64)
	if err != nil {
		d.fail(err.Error())
	}
	return n
}

func (d *decoder) int() int {
	f := d.field()
	if d.err != nil {
		return 0
	}
	n, err := strconv.Atoi(f)
	if err != nil {
		d.fail(err.Error())
	}
	return n
}

func (d *decoder) id() ID {
	return ID{Var: d.field(), Index: d.int()}
}

func (d *decoder) value() Value {
	switch tag := d.field(); tag {
	case "l":
		return Value{Kind: Long, L: d.int64()}
	case "d":
		f := d.field()
		if d.err != nil {
			return Value{}
		}
		x, err := strconv.ParseFloat(f, 64)
		if err != nil {
			d.fail(err.Error())
		}
		return Value{Kind: Double, D: x}
	case "s":
		return Value{Kind: String, S: d.field()}
	default:
		d.fail("bad value tag " + strconv.Quote(tag))
		return Value{}
	}
}

// MaxLine bounds one protocol message. The largest legitimate line is
// the periodic update of a client registered to the whole catalogue at
// every interface index of the proxy host: about 4.3 KiB for the 78
// variables of core.NewSystem at 3 indices (TestEEMFullCatalogueUpdate
// logs it; the var-list reply is ~1 KiB). 64 KiB leaves room for
// further sources, hosts with more interfaces and long string values,
// and still caps what a peer can make the other side hold. The SP
// port's 4 KiB would cut that update off, hence a bound per protocol.
const MaxLine = 64 << 10

// errTooLong answers a message over MaxLine.
var errTooLong = encodeMsg(wireMsg{Kind: msgError, Err: fmt.Sprintf("message exceeds %d bytes", MaxLine)})

// readLines frames conn's inbound messages for handle under MaxLine,
// skipping blank lines; diag, if any, answers an over-long one. The
// framer takes each line's newline off; handle gets the line with it
// back, in a buffer valid only for the call.
func readLines(conn Conn, diag []byte, handle func(line []byte)) func([]byte) {
	var buf []byte
	return lines.New(conn, MaxLine, diag, func(line []byte) error {
		if len(line) > 0 {
			buf = append(append(buf[:0], line...), '\n')
			handle(buf)
		}
		return nil
	})
}

// Conn is the byte stream the protocol runs over: the simulated TCP
// connection in experiments, a real net.Conn in the daemons.
type Conn = lines.Conn
