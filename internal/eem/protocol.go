package eem

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/lines"
)

// The EEM wire protocol is newline-delimited JSON messages over a byte
// stream (the thesis's "lean data-transfer protocol between client and
// server", §6.1.2, rendered debuggable). The same codec runs over the
// simulated TCP stack and over real net.Conn in the daemons.
//
// The codec is hand-written for the one envelope, wireMsg: appendMsg
// writes the bytes encoding/json's Marshal writes for it, and
// decodeMsg accepts and decodes what encoding/json's Unmarshal does,
// except that keys match field names only exactly (Unmarshal also
// matches them under case folding; here such a key is unknown and
// skipped). The json tags below are the schema both follow, and
// encoding/json is the reference the tests hold the codec to.

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

// wireMsg is the single envelope for all protocol messages. The id,
// attr and value objects are always on the wire: omitempty does
// nothing to a struct field.
type wireMsg struct {
	Kind string `json:"kind"`
	// Seq correlates poll requests with replies.
	Seq int64 `json:"seq,omitempty"`
	ID  ID    `json:"id,omitempty"`
	A   Attr  `json:"attr,omitempty"`
	V   Value `json:"value,omitempty"`
	// Batch carries the variables of a periodic update.
	Batch []varUpdate `json:"batch,omitempty"`
	Err   string      `json:"err,omitempty"`
	// Code tags protocol errors with a machine-readable kind so the
	// client can reconstruct the matching typed sentinel (errors.go).
	Code  string   `json:"code,omitempty"`
	Names []string `json:"names,omitempty"`
}

// varUpdate is one entry in a periodic update batch.
type varUpdate struct {
	ID ID    `json:"id"`
	V  Value `json:"value"`
}

// encodeMsg renders a message as one line in a slice of its own. The
// transports keep what they are handed (tcp.Conn.Write queues the
// slice itself until it is acknowledged), so a line must never share
// bytes with another: it is built in pooled scratch space and copied
// out, one allocation of exactly its length. A non-finite double
// panics: JSON has no rendering for it (json.Marshal refuses it too).
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
	dst = append(dst, `{"kind":`...)
	dst = appendString(dst, m.Kind)
	if m.Seq != 0 {
		dst = append(dst, `,"seq":`...)
		dst = strconv.AppendInt(dst, m.Seq, 10)
	}
	dst = append(dst, `,"id":`...)
	dst = appendID(dst, &m.ID)
	dst = append(dst, `,"attr":{"lower":`...)
	dst = appendValue(dst, &m.A.Lower)
	dst = append(dst, `,"upper":`...)
	dst = appendValue(dst, &m.A.Upper)
	dst = append(dst, `,"op":`...)
	dst = strconv.AppendInt(dst, int64(m.A.Op), 10)
	if m.A.Interrupt {
		dst = append(dst, `,"interrupt":true`...)
	}
	dst = append(dst, `},"value":`...)
	dst = appendValue(dst, &m.V)
	if len(m.Batch) > 0 {
		dst = append(dst, `,"batch":[`...)
		for i := range m.Batch {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"id":`...)
			dst = appendID(dst, &m.Batch[i].ID)
			dst = append(dst, `,"value":`...)
			dst = appendValue(dst, &m.Batch[i].V)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if m.Err != "" {
		dst = append(dst, `,"err":`...)
		dst = appendString(dst, m.Err)
	}
	if m.Code != "" {
		dst = append(dst, `,"code":`...)
		dst = appendString(dst, m.Code)
	}
	if len(m.Names) > 0 {
		dst = append(dst, `,"names":[`...)
		for i, n := range m.Names {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, n)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}', '\n')
}

func appendID(dst []byte, id *ID) []byte {
	dst = append(dst, `{"var":`...)
	dst = appendString(dst, id.Var)
	if id.Index != 0 {
		dst = append(dst, `,"index":`...)
		dst = strconv.AppendInt(dst, int64(id.Index), 10)
	}
	if id.Server != "" {
		dst = append(dst, `,"server":`...)
		dst = appendString(dst, id.Server)
	}
	return append(dst, '}')
}

func appendValue(dst []byte, v *Value) []byte {
	dst = append(dst, `{"kind":`...)
	dst = strconv.AppendInt(dst, int64(v.Kind), 10)
	if v.L != 0 {
		dst = append(dst, `,"l":`...)
		dst = strconv.AppendInt(dst, v.L, 10)
	}
	if v.D != 0 {
		dst = append(dst, `,"d":`...)
		dst = appendFloat(dst, v.D)
	}
	if v.S != "" {
		dst = append(dst, `,"s":`...)
		dst = appendString(dst, v.S)
	}
	return append(dst, '}')
}

// appendFloat writes f as encoding/json does (ES6 number rendering):
// the shortest 'f' form, or 'e' below 1e-6 and from 1e21 in magnitude
// with a one-digit exponent left unpadded.
func appendFloat(dst []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		panic("eem: marshal: json: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendString writes s quoted as encoding/json does: HTML-escaped
// (<, > and &), U+2028 and U+2029 escaped, and each byte of invalid
// UTF-8 as \ufffd.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// maxDepth is encoding/json's nesting limit, kept so that the decoder
// rejects what Unmarshal rejects.
const maxDepth = 10000

// decodeMsg reads one line (without its newline) into a fresh message
// in a single pass. It accepts any JSON object — members in any order,
// whitespace between tokens, unknown members of any type (skipped but
// still checked), null for any field (which leaves it as it is, or
// nil for a list), \u escapes — and the literal null, and rejects the
// rest with an error saying where. Integer fields take only integers
// that fit their type. As in encoding/json, a repeated key decodes
// over what its first occurrence left, list elements included.
func decodeMsg(line []byte) (wireMsg, error) {
	d := decoder{b: line}
	var m wireMsg
	d.msg(&m)
	if d.peek() != 0 {
		d.fail()
	}
	return m, d.err
}

// decoder is the cursor of decodeMsg. Its error is sticky: after the
// first fault peek reports the end of the line, so every reader falls
// through without consuming anything and the loops end.
type decoder struct {
	b     []byte
	i     int
	depth int
	err   error
}

// peek skips whitespace and returns the byte at the cursor, or 0 at
// the end of the line and after a fault.
func (d *decoder) peek() byte {
	for d.err == nil && d.i < len(d.b) {
		switch c := d.b[d.i]; c {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return c
		}
	}
	return 0
}

// fail records a syntax error at the cursor; the first fault wins.
func (d *decoder) fail() {
	switch {
	case d.err != nil:
	case d.i >= len(d.b):
		d.err = errors.New("unexpected end of line")
	default:
		d.err = fmt.Errorf("invalid character %q at offset %d", d.b[d.i], d.i)
	}
}

// mismatch records a value of the wrong type at the cursor (a syntax
// error if no value starts there).
func (d *decoder) mismatch(want string) {
	if c := d.peek(); d.err == nil && strings.IndexByte(`{["tfn-0123456789`, c) >= 0 {
		d.err = fmt.Errorf("value at offset %d is not %s", d.i, want)
	}
	d.fail()
}

// literal consumes word (true, false or null) at the cursor.
func (d *decoder) literal(word string) {
	if len(d.b)-d.i < len(word) || string(d.b[d.i:d.i+len(word)]) != word {
		d.fail()
		return
	}
	d.i += len(word)
}

// open consumes the '{' or '[' at the cursor.
func (d *decoder) open() {
	d.i++
	if d.depth++; d.depth > maxDepth {
		d.err = fmt.Errorf("nesting deeper than %d at offset %d", maxDepth, d.i)
	}
}

// first and next walk the members of an object or the elements of an
// array just opened, close being its closing byte: each reports
// whether another member follows, and consumes the close when not.
//
//	for more := d.first('}'); more; more = d.next('}') { ... }
func (d *decoder) first(close byte) bool {
	if d.peek() == close {
		d.i++
		d.depth--
		return false
	}
	return d.err == nil
}

func (d *decoder) next(close byte) bool {
	switch d.peek() {
	case ',':
		d.i++
		return true
	case close:
		d.i++
		d.depth--
		return false
	}
	d.fail()
	return false
}

// object opens the object a struct field holds. It reports false for
// null, which leaves the struct as it is, and on a fault.
func (d *decoder) object() bool {
	switch d.peek() {
	case '{':
		d.open()
		return d.err == nil
	case 'n':
		d.literal("null")
	default:
		d.mismatch("an object")
	}
	return false
}

// key reads a member's key and its colon.
func (d *decoder) key() []byte {
	if d.peek() != '"' {
		d.fail()
		return nil
	}
	k := d.stringToken()
	if d.peek() != ':' {
		d.fail()
		return nil
	}
	d.i++
	return k
}

// stringToken reads the string at the cursor and returns its content:
// a subslice of the line when it holds no escape and no invalid
// UTF-8, else a fresh unquoted copy.
func (d *decoder) stringToken() []byte {
	d.i++
	start := d.i
	for d.i < len(d.b) {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			return d.b[start : d.i-1]
		case c == '\\':
			return d.unquote(start)
		case c < ' ':
			d.fail()
			return nil
		case c < utf8.RuneSelf:
			d.i++
		default:
			r, size := utf8.DecodeRune(d.b[d.i:])
			if r == utf8.RuneError && size == 1 {
				return d.unquote(start)
			}
			d.i += size
		}
	}
	d.fail()
	return nil
}

// unquote finishes the string opened at start, the cursor at its first
// escape or invalid byte, as encoding/json unquotes: JSON's escapes,
// a \u surrogate pair joined, a lone surrogate or invalid UTF-8 byte
// read as U+FFFD.
func (d *decoder) unquote(start int) []byte {
	out := make([]byte, 0, len(d.b)-start)
	out = append(out, d.b[start:d.i]...)
	for d.i < len(d.b) {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			return out
		case c == '\\':
			if d.i+1 >= len(d.b) {
				d.i = len(d.b)
				d.fail()
				return nil
			}
			d.i++
			switch e := d.b[d.i]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := d.hex4(d.i + 1)
				if r < 0 {
					d.fail()
					return nil
				}
				d.i += 4
				// A surrogate joins the \u escape after it, or reads as
				// U+FFFD alone.
				if utf16.IsSurrogate(r) {
					if r = utf16.DecodeRune(r, d.escapedRune(d.i+1)); r != utf8.RuneError {
						d.i += 6
					}
				}
				out = utf8.AppendRune(out, r)
			default:
				d.fail()
				return nil
			}
			d.i++
		case c < ' ':
			d.fail()
			return nil
		case c < utf8.RuneSelf:
			out = append(out, c)
			d.i++
		default:
			r, size := utf8.DecodeRune(d.b[d.i:])
			out = utf8.AppendRune(out, r)
			d.i += size
		}
	}
	d.fail()
	return nil
}

// escapedRune reads a \uXXXX escape at i, or returns -1.
func (d *decoder) escapedRune(i int) rune {
	if i+1 >= len(d.b) || d.b[i] != '\\' || d.b[i+1] != 'u' {
		return -1
	}
	return d.hex4(i + 2)
}

// hex4 reads four hex digits at i, or returns -1.
func (d *decoder) hex4(i int) rune {
	var r rune
	for k := i; k < i+4; k++ {
		if k >= len(d.b) {
			return -1
		}
		switch c := d.b[k]; {
		case '0' <= c && c <= '9':
			r = r<<4 | rune(c-'0')
		case 'a' <= c && c <= 'f':
			r = r<<4 | rune(c-'a'+10)
		case 'A' <= c && c <= 'F':
			r = r<<4 | rune(c-'A'+10)
		default:
			return -1
		}
	}
	return r
}

// number reads the number at the cursor, reporting whether it is an
// integer (no fraction, no exponent).
func (d *decoder) number() (tok []byte, integral bool) {
	start := d.i
	if d.at('-') {
		d.i++
	}
	switch {
	case d.at('0'):
		d.i++
	case d.digits():
	default:
		d.fail()
		return nil, false
	}
	integral = true
	if d.at('.') {
		d.i++
		integral = false
		if !d.digits() {
			d.fail()
			return nil, false
		}
	}
	if d.at('e') || d.at('E') {
		d.i++
		integral = false
		if d.at('+') || d.at('-') {
			d.i++
		}
		if !d.digits() {
			d.fail()
			return nil, false
		}
	}
	return d.b[start:d.i], integral
}

func (d *decoder) at(c byte) bool { return d.i < len(d.b) && d.b[d.i] == c }

// digits consumes a run of digits, reporting whether there was one.
func (d *decoder) digits() bool {
	start := d.i
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i > start
}

// skip reads and checks a value nothing decodes into.
func (d *decoder) skip() {
	switch c := d.peek(); {
	case c == '{':
		d.open()
		for more := d.first('}'); more; more = d.next('}') {
			d.key()
			d.skip()
		}
	case c == '[':
		d.open()
		for more := d.first(']'); more; more = d.next(']') {
			d.skip()
		}
	case c == '"':
		d.stringToken()
	case c == 't':
		d.literal("true")
	case c == 'f':
		d.literal("false")
	case c == 'n':
		d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		d.number()
	default:
		d.fail()
	}
}

// str reads a string field.
func (d *decoder) str(p *string) {
	switch d.peek() {
	case '"':
		if s := d.stringToken(); d.err == nil {
			*p = string(s)
		}
	case 'n':
		d.literal("null")
	default:
		d.mismatch("a string")
	}
}

// msgKinds are the protocol's message kinds.
var msgKinds = [...]string{msgRegister, msgDeregister, msgDeregisterAll, msgPoll, msgUpdate,
	msgNotify, msgPollReply, msgError, msgListVars, msgVarList}

// kind reads the message kind, sharing the constants' storage for the
// protocol's own kinds.
func (d *decoder) kind(p *string) {
	if d.peek() != '"' {
		d.str(p)
		return
	}
	s := d.stringToken()
	if d.err != nil {
		return
	}
	for _, k := range msgKinds {
		if string(s) == k {
			*p = k
			return
		}
	}
	*p = string(s)
}

// integer reads an integer field of type T; a fraction, an exponent
// or a value T cannot hold is a mismatch.
func integer[T ~int | ~int64](d *decoder, p *T) {
	switch c := d.peek(); {
	case c == 'n':
		d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		tok, integral := d.number()
		if d.err != nil {
			return
		}
		n, err := strconv.ParseInt(string(tok), 10, 64)
		if !integral || err != nil || int64(T(n)) != n {
			d.err = fmt.Errorf("number %s at offset %d is not an integer of its field", tok, d.i)
			return
		}
		*p = T(n)
	default:
		d.mismatch("a number")
	}
}

// float reads a double field.
func (d *decoder) float(p *float64) {
	switch c := d.peek(); {
	case c == 'n':
		d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		tok, _ := d.number()
		if d.err != nil {
			return
		}
		f, err := strconv.ParseFloat(string(tok), 64)
		if err != nil {
			d.err = fmt.Errorf("number %s at offset %d is out of range", tok, d.i)
			return
		}
		*p = f
	default:
		d.mismatch("a number")
	}
}

// boolean reads a bool field.
func (d *decoder) boolean(p *bool) {
	switch d.peek() {
	case 't':
		if d.literal("true"); d.err == nil {
			*p = true
		}
	case 'f':
		if d.literal("false"); d.err == nil {
			*p = false
		}
	case 'n':
		d.literal("null")
	default:
		d.mismatch("a boolean")
	}
}

// list reads an array field with encoding/json's slice rules: null
// sets nil and [] a non-nil empty slice; element i decodes over what
// the backing array already holds there, which a repeated key can
// observe.
func list[T varUpdate | string](d *decoder, p *[]T) {
	switch d.peek() {
	case 'n':
		d.literal("null")
		*p = nil
	case '[':
		d.open()
		s, i := *p, 0
		for more := d.first(']'); more; more = d.next(']') {
			if i == len(s) {
				if i < cap(s) {
					s = s[:i+1]
				} else {
					var zero T
					s = append(s, zero)
				}
			}
			// A direct call keeps the decoder on the caller's stack,
			// where a func value would move it to the heap.
			switch e := any(&s[i]).(type) {
			case *varUpdate:
				d.update(e)
			case *string:
				d.str(e)
			}
			i++
		}
		if i == 0 {
			s = []T{}
		}
		*p = s[:i]
	default:
		d.mismatch("an array")
	}
}

func (d *decoder) msg(m *wireMsg) {
	if !d.object() {
		return
	}
	for more := d.first('}'); more; more = d.next('}') {
		switch string(d.key()) {
		case "kind":
			d.kind(&m.Kind)
		case "seq":
			integer(d, &m.Seq)
		case "id":
			d.id(&m.ID)
		case "attr":
			d.attr(&m.A)
		case "value":
			d.value(&m.V)
		case "batch":
			list(d, &m.Batch)
		case "err":
			d.str(&m.Err)
		case "code":
			d.str(&m.Code)
		case "names":
			list(d, &m.Names)
		default:
			d.skip()
		}
	}
}

func (d *decoder) id(id *ID) {
	if !d.object() {
		return
	}
	for more := d.first('}'); more; more = d.next('}') {
		switch string(d.key()) {
		case "var":
			d.str(&id.Var)
		case "index":
			integer(d, &id.Index)
		case "server":
			d.str(&id.Server)
		default:
			d.skip()
		}
	}
}

func (d *decoder) attr(a *Attr) {
	if !d.object() {
		return
	}
	for more := d.first('}'); more; more = d.next('}') {
		switch string(d.key()) {
		case "lower":
			d.value(&a.Lower)
		case "upper":
			d.value(&a.Upper)
		case "op":
			integer(d, &a.Op)
		case "interrupt":
			d.boolean(&a.Interrupt)
		default:
			d.skip()
		}
	}
}

func (d *decoder) value(v *Value) {
	if !d.object() {
		return
	}
	for more := d.first('}'); more; more = d.next('}') {
		switch string(d.key()) {
		case "kind":
			integer(d, &v.Kind)
		case "l":
			integer(d, &v.L)
		case "d":
			d.float(&v.D)
		case "s":
			d.str(&v.S)
		default:
			d.skip()
		}
	}
}

func (d *decoder) update(u *varUpdate) {
	if !d.object() {
		return
	}
	for more := d.first('}'); more; more = d.next('}') {
		switch string(d.key()) {
		case "id":
			d.id(&u.ID)
		case "value":
			d.value(&u.V)
		default:
			d.skip()
		}
	}
}

// MaxLine bounds one protocol message. The largest legitimate line is
// the periodic update of a client registered to the whole catalogue at
// every interface index of the proxy host: about 18 KiB for the 78
// variables of core.NewSystem (TestEEMFullCatalogueUpdate; the
// var-list reply is ~1 KiB). 64 KiB leaves room for further sources
// and still caps what a peer can make the other side hold. The SP
// port's 4 KiB would cut that update off, hence a bound per protocol.
const MaxLine = 64 << 10

// errTooLong answers a message over MaxLine.
var errTooLong = encodeMsg(wireMsg{Kind: msgError, Err: fmt.Sprintf("message exceeds %d bytes", MaxLine)})

// readLines frames conn's inbound messages for handle under MaxLine,
// skipping blank lines; diag, if any, answers an over-long one.
func readLines(conn Conn, diag []byte, handle func(line []byte)) func([]byte) {
	return lines.New(conn, MaxLine, diag, func(line []byte) error {
		if len(line) > 0 {
			handle(line)
		}
		return nil
	})
}

// Conn is the byte stream the protocol runs over: the simulated TCP
// connection in experiments, a real net.Conn in the daemons.
type Conn = lines.Conn
