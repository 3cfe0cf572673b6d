package eem

// The wire codec: the pinned lines of each kind, and the round-trip
// property (decodeMsg inverts encodeMsg, and rejects any line cut
// short or run on) over the fuzzer's messages.

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"testing"
)

// wireLines pins a line of every kind, with strings that need quoting
// and doubles at each special value. Each message uses only the fields
// its kind carries, so each round-trips.
var wireLines = []struct {
	m    wireMsg
	line string
}{
	{wireMsg{Kind: msgRegister, ID: ID{Var: "sysUpTime"},
		A: Attr{Lower: LongValue(0), Upper: DoubleValue(2.5), Op: IN, Interrupt: true}},
		`register sysUpTime 0 6 1 l 0 d 2.5`},
	{wireMsg{Kind: msgRegister, ID: ID{Var: "sysName", Index: -2}, A: Attr{Lower: StringValue("a b"), Op: EQ}},
		`register sysName -2 4 0 s "a b" l 0`},
	{wireMsg{Kind: msgDeregister, ID: ID{Var: "link.bw", Index: 1}}, `deregister link.bw 1`},
	{wireMsg{Kind: msgDeregisterAll}, `deregister-all`},
	{wireMsg{Kind: msgPoll, Seq: 1, ID: ID{Var: "sysName"}}, `poll 1 sysName 0`},
	{wireMsg{Kind: msgPollReply, Seq: 1, V: StringValue("a \"b\"\n\\")}, `poll-reply 1 s "a \"b\"\n\\"`},
	{wireMsg{Kind: msgPollReply, Seq: math.MaxInt64, V: LongValue(math.MinInt64)},
		`poll-reply 9223372036854775807 l -9223372036854775808`},
	{wireMsg{Kind: msgListVars, Seq: 2}, `list-vars 2`},
	{wireMsg{Kind: msgVarList, Seq: 2, Names: []string{"sysUpTime", "", "é\xff\x00"}},
		`var-list 2 sysUpTime "" "é\xff\x00"`},
	{wireMsg{Kind: msgVarList, Seq: 3}, `var-list 3`},
	{wireMsg{Kind: msgUpdate, Batch: []varUpdate{{ID{Var: "ifInOctets", Index: 1}, LongValue(123456789)},
		{ID{Var: "link.rtt"}, DoubleValue(0.0125)}, {ID{Var: "sysName"}, StringValue("")}}},
		`update ifInOctets 1 l 123456789 link.rtt 0 d 0.0125 sysName 0 s ""`},
	{wireMsg{Kind: msgNotify, ID: ID{Var: "link.rtt", Index: 3}, V: DoubleValue(1e21)}, `notify link.rtt 3 d 1e+21`},
	{wireMsg{Kind: msgNotify, ID: ID{Var: "x"}, V: DoubleValue(5e-324)}, `notify x 0 d 5e-324`},
	{wireMsg{Kind: msgNotify, ID: ID{Var: "x"}, V: DoubleValue(math.Copysign(0, -1))}, `notify x 0 d -0`},
	{wireMsg{Kind: msgNotify, ID: ID{Var: "x"}, V: DoubleValue(math.NaN())}, `notify x 0 d NaN`},
	{wireMsg{Kind: msgNotify, ID: ID{Var: "x"}, V: DoubleValue(math.Inf(-1))}, `notify x 0 d -Inf`},
	{wireMsg{Kind: msgError, Seq: 9, Err: `eem: unknown variable "x"`, Code: codeUnknownVar},
		`error 9 unknown-var "eem: unknown variable \"x\""`},
	{wireMsg{Kind: msgError, Err: "message exceeds 65536 bytes"}, `error 0 "" "message exceeds 65536 bytes"`},
}

// sameMsg compares messages with doubles by their bits, so that NaN
// matches NaN and -0 does not match 0.
func sameMsg(a, b wireMsg) bool {
	bits := func(m wireMsg) (wireMsg, []uint64) {
		m.Batch = slices.Clone(m.Batch)
		vs := []*Value{&m.A.Lower, &m.A.Upper, &m.V}
		for i := range m.Batch {
			vs = append(vs, &m.Batch[i].V)
		}
		var out []uint64
		for _, v := range vs {
			out, v.D = append(out, math.Float64bits(v.D)), 0
		}
		return m, out
	}
	am, ab := bits(a)
	bm, bb := bits(b)
	return reflect.DeepEqual(am, bm) && slices.Equal(ab, bb)
}

// TestWireLines: every pinned message encodes to its line and decodes
// back from it.
func TestWireLines(t *testing.T) {
	for _, c := range wireLines {
		line := encodeMsg(c.m)
		if string(line) != c.line+"\n" {
			t.Errorf("encode %+v:\n got %q\nwant %q", c.m, line, c.line+"\n")
		}
		if got, err := decodeMsg(line); err != nil || !sameMsg(got, c.m) {
			t.Errorf("decode %q: %+v, %v", line, got, err)
		}
	}
}

// TestEncodeReturnsFreshLines: the transports keep every line they are
// handed, so two encodes may not share storage.
func TestEncodeReturnsFreshLines(t *testing.T) {
	a := encodeMsg(wireMsg{Kind: msgPoll, Seq: 1})
	want := string(a)
	b := encodeMsg(wireMsg{Kind: msgPoll, Seq: 2})
	if string(a) != want || &a[0] == &b[0] {
		t.Fatalf("second encode overwrote the first line: %q", a)
	}
}

// TestEncodeNonFiniteRoundTrips: NaN and ±Inf cross the wire in every
// place a double can stand and come back with the bits they left with.
func TestEncodeNonFiniteRoundTrips(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, m := range []wireMsg{
			{Kind: msgNotify, V: DoubleValue(f)},
			{Kind: msgPollReply, V: DoubleValue(f)},
			{Kind: msgRegister, A: Attr{Lower: DoubleValue(f), Upper: DoubleValue(f)}},
			{Kind: msgUpdate, Batch: []varUpdate{{ID{Var: "a"}, DoubleValue(f)}, {ID{Var: "b"}, DoubleValue(f)}}},
		} {
			line := encodeMsg(m)
			if got, err := decodeMsg(line); err != nil || !sameMsg(got, m) {
				t.Errorf("%q decoded to %+v, %v; want %+v", line, got, err, m)
			}
		}
	}
}

// commaInboundSeeds are server lines of every kind a client reads,
// newline excluded; FuzzCommaInbound and FuzzWireCodec start from them.
var commaInboundSeeds = []string{
	`update sysUpTime 0 l 7`,
	`update sysUpTime 0 l 8 ifSpeed 2 d 1e+06 sysName 0 s "a b"`,
	`notify sysUpTime 0 l 9`,
	`poll-reply 1 s server`,
	`error 1 unknown-var "eem: unknown variable \"sysName\""`,
	`error 1 "" boom`,
	`var-list 2 sysUpTime ifSpeed`,
	`error 0 "" "bad message: field 1: unknown kind \"x\""`,
}

// wireKinds are the kinds the fuzzer builds messages of.
var wireKinds = []string{msgRegister, msgDeregister, msgDeregisterAll, msgPoll, msgListVars,
	msgPollReply, msgVarList, msgUpdate, msgNotify, msgError}

// fuzzMsg builds a message of kind from the fuzzer's strings, integer
// and double, filling every field the kind carries; sel picks the
// value's kind and the interrupt flag.
func fuzzMsg(kind string, s1, s2 string, n int64, x float64, sel uint8) wireMsg {
	v := [...]Value{LongValue(n), DoubleValue(x), StringValue(s2)}[int(sel>>1)%3]
	id := ID{Var: s1, Index: int(n)}
	switch kind {
	case msgRegister:
		return wireMsg{Kind: kind, ID: id, A: Attr{Lower: v, Upper: DoubleValue(x), Op: Operator(n), Interrupt: sel&1 != 0}}
	case msgDeregister:
		return wireMsg{Kind: kind, ID: id}
	case msgPoll:
		return wireMsg{Kind: kind, Seq: n, ID: id}
	case msgListVars:
		return wireMsg{Kind: kind, Seq: n}
	case msgPollReply:
		return wireMsg{Kind: kind, Seq: n, V: v}
	case msgVarList:
		return wireMsg{Kind: kind, Seq: n, Names: []string{s1, s2, s1 + s2}}
	case msgUpdate:
		return wireMsg{Kind: kind, Batch: []varUpdate{{id, v}, {ID{Var: s2, Index: int(^n)}, DoubleValue(x)}}}
	case msgNotify:
		return wireMsg{Kind: kind, ID: id, V: v}
	case msgError:
		return wireMsg{Kind: kind, Seq: n, Err: s1, Code: s2}
	}
	return wireMsg{Kind: kind}
}

// FuzzWireCodec checks the codec's round trip: (a) a message of any
// kind built from the inputs — any strings, invalid UTF-8, spaces,
// newlines and quotes included, any integer and any double — decodes
// from its line to itself; (b) every strict prefix of that line is
// rejected, and so are two lines run together; (c) decodeMsg does not
// panic on arbitrary bytes, and what it accepts encodes to a line
// that decodes to the same message.
func FuzzWireCodec(f *testing.F) {
	for i, s := range commaInboundSeeds {
		f.Add([]byte(s+"\n"), "sysUpTime", "srv", int64(i), 0.5, uint8(i))
	}
	for i, c := range wireLines {
		f.Add([]byte(c.line+"\n"), "a b\n\"\\", "\xff\x00é", int64(-i), math.Inf(1-i%3), uint8(i*3))
	}
	f.Add([]byte("poll 1 x 0"), "", "", int64(math.MinInt64), math.NaN(), uint8(255))
	f.Fuzz(func(t *testing.T, line []byte, s1, s2 string, n int64, x float64, sel uint8) {
		if math.IsNaN(x) {
			x = math.NaN() // the wire keeps no NaN payload
		}
		m := fuzzMsg(wireKinds[int(sel)%len(wireKinds)], s1, s2, n, x, sel)
		enc := encodeMsg(m)
		if got, err := decodeMsg(enc); err != nil || !sameMsg(got, m) {
			t.Fatalf("%q decoded to %+v, %v; want %+v", enc, got, err, m)
		}
		for k := range enc {
			if got, err := decodeMsg(enc[:k]); err == nil {
				t.Fatalf("prefix %q of %q decoded to %+v", enc[:k], enc, got)
			}
		}
		other := encodeMsg(fuzzMsg(wireKinds[int(sel+1)%len(wireKinds)], s2, s1, ^n, x, sel))
		if got, err := decodeMsg(append(slices.Clip(enc), other...)); err == nil {
			t.Fatalf("%q run into %q decoded to %+v", enc, other, got)
		}

		got, err := decodeMsg(line)
		if err != nil {
			return
		}
		again := encodeMsg(got)
		if back, err := decodeMsg(again); err != nil || !sameMsg(back, got) {
			t.Fatalf("%q decoded to %+v, which encodes to %q and decodes to %+v, %v", line, got, again, back, err)
		}
	})
}

// updateBatch is an n-variable periodic update, the shape the
// scenarios' EEM clients receive each tick.
func updateBatch(n int) wireMsg {
	var batch []varUpdate
	for i := 0; i < n; i++ {
		v := LongValue(int64(i) * 1_000_003)
		if i%2 == 1 {
			v = DoubleValue(float64(i) * 1234.5678)
		}
		batch = append(batch, varUpdate{ID: ID{Var: "link.bw", Index: i % 3}, V: v})
	}
	return wireMsg{Kind: msgUpdate, Batch: batch}
}

var (
	pollMsg      = wireMsg{Kind: msgPoll, Seq: 41, ID: ID{Var: "link.bw", Index: 1}}
	pollReplyMsg = wireMsg{Kind: msgPollReply, Seq: 41, V: DoubleValue(19.5e6)}
	sinkLine     []byte
	sinkMsg      wireMsg
)

// TestWireCodecAllocs gates the codec's allocations: encoding makes the
// fresh line and nothing else; decoding a poll makes at most the
// strings it returns (one copy of the line holds them all); decoding
// an update allocates nothing per entry.
func TestWireCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate: the race detector's sync.Pool drops puts at random")
	}
	for _, m := range []wireMsg{updateBatch(12), pollMsg, pollReplyMsg} {
		m := m
		if a := testing.AllocsPerRun(200, func() { sinkLine = encodeMsg(m) }); a != 1 {
			t.Errorf("encoding a %s: %.1f allocations, want 1", m.Kind, a)
		}
	}
	decodeAllocs := func(m wireMsg) float64 {
		line := encodeMsg(m)
		return testing.AllocsPerRun(200, func() { sinkMsg, _ = decodeMsg(line) })
	}
	if a := decodeAllocs(pollMsg); a > 2 {
		t.Errorf("decoding a poll: %.1f allocations, want at most 2", a)
	}
	if one, twelve := decodeAllocs(updateBatch(1)), decodeAllocs(updateBatch(12)); one != twelve {
		t.Errorf("decoding an update: %.1f allocations at 1 entry, %.1f at 12", one, twelve)
	}
}

func BenchmarkEncodeUpdate(b *testing.B) {
	for _, c := range []struct {
		name string
		m    wireMsg
	}{{"update12", updateBatch(12)}, {"poll", pollMsg}, {"poll-reply", pollReplyMsg}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkLine = encodeMsg(c.m)
			}
		})
	}
}

func BenchmarkDecodeUpdate(b *testing.B) {
	for _, c := range []struct {
		name string
		m    wireMsg
	}{{"update1", updateBatch(1)}, {"update12", updateBatch(12)}, {"poll", pollMsg}, {"poll-reply", pollReplyMsg}} {
		line := encodeMsg(c.m)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkMsg, _ = decodeMsg(line)
			}
		})
	}
}

// TestDecodeRejects: a line of each fault the grammar rules out.
func TestDecodeRejects(t *testing.T) {
	for _, l := range []string{
		"", "\n", "poll 1 x 0", "poll 1 x 0\n\n", "poll 1 x 0\npoll 2 y 0\n", " poll 1 x 0\n", "poll  1 x 0\n",
		"poll 1 x 0 \n", "poll 1 x\n", "poll 1 x 0 srv\n", "poll 1.5 x 0\n", "poll 1 x 0x1\n",
		"poll 9223372036854775808 x 0\n", "poll 1 x 9223372036854775808\n", "poll 1 \"x 0\n",
		"poll 1 \"x\"y 0\n", "poll 1 \"\\q\" 0\n", "poll 1 x\t 0\n", "poll 1 é 0\n", "poll 1 x\r 0\n",
		"register x 0 1 2 l 0 l 0\n", "register x 0 1 0 q 0 l 0\n", "register x 0 1 0 l 0\n",
		"poll-reply 1 d 1e400\n", "poll-reply 1 l 0.5\n", "update x 0 l 1 y\n", "update x 0 l 1 y 0 l\n",
		"var-list 1 a \n", "error 0 \"\"\n", "POLL 1 x 0\n", "{\"kind\":\"poll\",\"seq\":1}\n",
	} {
		if m, err := decodeMsg([]byte(l)); err == nil {
			t.Errorf("%q decoded to %+v", l, m)
		}
	}
	spaces := append(append([]byte("update"), bytes.Repeat([]byte{' '}, 1<<10)...), '\n')
	if _, err := decodeMsg(spaces); err == nil {
		t.Error("an update of spaces decoded")
	}
}
