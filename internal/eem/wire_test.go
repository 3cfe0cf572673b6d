package eem

// The wire codec against encoding/json, its reference: the encoder
// must write Marshal's bytes, and the decoder must accept, reject and
// decode as Unmarshal does, keys that match a field only under case
// folding excepted (the codec matches keys exactly).

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// wireSamples covers every message the protocol sends, plus strings
// that exercise each escape and doubles at each change of format.
func wireSamples() []wireMsg {
	attr := Attr{Lower: LongValue(0), Upper: DoubleValue(2.5), Op: IN, Interrupt: true}
	var batch []varUpdate
	for i := 0; i < 12; i++ {
		batch = append(batch, varUpdate{ID: ID{Var: "ifInOctets", Index: i, Server: "proxy"},
			V: LongValue(int64(i) * 123456789)})
	}
	msgs := []wireMsg{
		{Kind: msgRegister, ID: ID{Var: "sysUpTime", Server: "srv"}, A: attr},
		{Kind: msgDeregister, ID: ID{Var: "link.bw", Index: 1}},
		{Kind: msgDeregisterAll},
		{Kind: msgPoll, Seq: 1, ID: ID{Var: "sysName", Server: "srv"}},
		{Kind: msgPollReply, Seq: 1, ID: ID{Var: "sysName"}, V: StringValue("server")},
		{Kind: msgPollReply, Seq: -9, Err: `eem: unknown variable "x"`, Code: codeUnknownVar},
		{Kind: msgUpdate, Batch: batch},
		{Kind: msgNotify, ID: ID{Var: "link.rtt", Index: 3}, V: DoubleValue(0.0125)},
		{Kind: msgListVars, Seq: 2},
		{Kind: msgVarList, Seq: 2, Names: []string{"sysUpTime", "ifSpeed", ""}},
		{Kind: msgError, Err: "message exceeds 65536 bytes"},
		{Kind: msgUpdate, Batch: []varUpdate{}, Names: []string{}},
		{Kind: "<&>\"\\/\b\f\n\r\t\x00\x1f\x7f", Err: "\u2028\u2029\u00e9\U0001F600", Code: "\xff\xfe a\xc3"},
		{ID: ID{Var: "\xed\xa0\x80", Server: "é"}, V: StringValue("\x80")},
		{Seq: math.MaxInt64, ID: ID{Index: math.MinInt64}, V: Value{Kind: -1, L: math.MinInt64}},
	}
	for _, f := range []float64{1, -1, 1e-6, 9.99e-7, -1e-7, 5e-324, 1e20, 1e21, -1e21, 123456789.125,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 1e-10, 1.5e300, math.Copysign(0, -1), 100} {
		msgs = append(msgs, wireMsg{Kind: msgNotify, V: DoubleValue(f), A: Attr{Lower: DoubleValue(-f)}})
	}
	return msgs
}

// marshalLine is the reference encoder.
func marshalLine(t testing.TB, m wireMsg) []byte {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestEncodeMatchesJSON: every sample encodes to Marshal's bytes.
func TestEncodeMatchesJSON(t *testing.T) {
	for _, m := range wireSamples() {
		if got, want := encodeMsg(m), marshalLine(t, m); !bytes.Equal(got, want) {
			t.Errorf("encode %+v:\n got %s\nwant %s", m, got, want)
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

// TestEncodeNonFinitePanics pins the contract for doubles Marshal
// refuses: the codec panics rather than invent a rendering.
func TestEncodeNonFinitePanics(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, m := range []wireMsg{
			{Kind: msgNotify, V: DoubleValue(f)},
			{Kind: msgRegister, A: Attr{Upper: DoubleValue(f)}},
			{Kind: msgUpdate, Batch: []varUpdate{{V: DoubleValue(f)}}},
		} {
			if _, err := json.Marshal(m); err == nil {
				t.Fatalf("json.Marshal accepted %v", f)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("encodeMsg(%+v) did not panic", m)
					}
				}()
				encodeMsg(m)
			}()
		}
	}
}

// unmarshalLine is the reference decoder.
func unmarshalLine(line []byte) (wireMsg, error) {
	var m wireMsg
	err := json.Unmarshal(line, &m)
	return m, err
}

// checkDecode holds decodeMsg to Unmarshal on one line: both reject
// it, or both decode the same message.
func checkDecode(t *testing.T, line []byte) {
	t.Helper()
	got, err := decodeMsg(line)
	want, wantErr := unmarshalLine(line)
	switch {
	case (err != nil) != (wantErr != nil):
		t.Fatalf("decode %q: codec error %v, encoding/json error %v", line, err, wantErr)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("decode %q:\n got %#v\nwant %#v", line, got, want)
	}
}

// TestDecodeMatchesJSON runs accepted and rejected lines past both
// decoders.
func TestDecodeMatchesJSON(t *testing.T) {
	lines := []string{
		`null`, ` null `, `{}`, "\t{ }\r\n",
		`{"kind":"poll","seq":3,"id":{"var":"v","index":2,"server":"s"}}`,
		`{"seq":3,"kind":"poll","extra":{"a":[1,2.5e-3,-0,true,false,null,"x",{"b":[]}]},"id":{"server":"s","var":"v"}}`,
		`{"kind":"k\u0069nd\/\"\\\b\f\n\r\t\u00e9\ud83d\ude00\ud800\u0041\udc00\ud800\ud800x"}`,
		"{\"kind\":\"\xff\xc3 \xed\xa0\x80\"}",
		`{"k\u0069nd":"update","batch":[{"id":{"var":"a"},"value":{"kind":1,"d":5e-324}},null,{"value":{"kind":1,"d":1E+21}}]}`,
		`{"kind":null,"seq":null,"id":null,"attr":null,"value":null,"batch":null,"err":null,"code":null,"names":null}`,
		`{"names":["a",null,"b"],"names":["c"]}`,
		`{"names":["a","b"],"names":[]}`,
		`{"names":[],"batch":[]}`,
		`{"names":["a"],"names":null,"batch":[{}],"batch":null}`,
		`{"batch":[{"id":{"var":"a","index":2}},{"id":{"var":"b"}}],"batch":[{"id":{"var":"c"}}],"batch":[{},{}]}`,
		`{"id":{"var":"a","index":2},"id":{"var":"b"},"attr":{"op":7,"interrupt":true},"attr":{"interrupt":false}}`,
		`{"value":{"kind":1,"d":1.7976931348623157e308,"l":-9223372036854775808}}`,
		`{"value":{"d":1e-400}}`,
		`{"seq":-0}`,
		// Rejected: syntax.
		``, ` `, `{`, `}`, `{"kind"}`, `{"kind":}`, `{"kind":"poll",}`, `{,}`, `{"kind":"poll"}x`,
		`{"kind":"poll"}{}`, `{"kind":'poll'}`, `{kind:"poll"}`, `{"a":[1,]}`, `{"a":[,1]}`, `{"a":01}`,
		`{"a":1.}`, `{"a":.5}`, `{"a":-}`, `{"a":1e}`, `{"a":+1}`, `{"a":nul}`, `{"a":tru}`, `{"a":True}`,
		"{\"kind\":\"a\x01\"}", `{"kind":"\x"}`, `{"kind":"\u12"}`, `{"kind":"\u12G4"}`, `{"kind":"\'"}`,
		`{"kind":"abc`, `{"kind":"ab\`, "\xef\xbb\xbf{}", `{"a":[}`, `{"a":{]}`, `{"a" 1}`, `{"a"::1}`,
		`{"a":NaN}`, `{"a":Infinity}`, `{"a":1 2}`, "{\v}", "\f{}", "{\u00a0}",
		// Rejected: types.
		`[]`, `"poll"`, `1`, `true`, `{"kind":1}`, `{"kind":{}}`, `{"seq":"1"}`, `{"seq":1.0}`, `{"seq":1e2}`,
		`{"seq":9223372036854775808}`, `{"seq":true}`, `{"id":[]}`, `{"id":"v"}`, `{"id":{"index":1.5}}`,
		`{"attr":{"op":"GT"}}`, `{"attr":{"interrupt":1}}`, `{"attr":{"interrupt":"true"}}`,
		`{"value":{"d":"1"}}`, `{"value":{"d":1e400}}`, `{"value":{"l":1e3}}`, `{"value":{"s":5}}`,
		`{"batch":{}}`, `{"batch":[1]}`, `{"batch":[[]]}`, `{"names":"a"}`, `{"names":[1]}`, `{"names":[[]]}`,
		`{"err":false}`, `{"code":[]}`,
	}
	for _, l := range lines {
		checkDecode(t, []byte(l))
	}
	for _, m := range wireSamples() {
		line := marshalLine(t, m)
		checkDecode(t, line[:len(line)-1])
	}
}

// TestDecodeNestingLimit: the codec keeps encoding/json's depth limit,
// the message object counting as one level.
func TestDecodeNestingLimit(t *testing.T) {
	for _, depth := range []int{maxDepth - 1, maxDepth, maxDepth + 1} {
		n := depth - 1
		line := []byte(`{"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `}`)
		checkDecode(t, line)
		if _, err := decodeMsg(line); (err != nil) != (depth > maxDepth) {
			t.Errorf("depth %d: error %v", depth, err)
		}
	}
}

// TestDecodeKeysMatchExactly documents the one deliberate divergence:
// encoding/json matches a key to a field under case folding, the codec
// does not, and skips the key as unknown.
func TestDecodeKeysMatchExactly(t *testing.T) {
	m, err := decodeMsg([]byte(`{"KIND":"poll","Seq":4,"kind":"update"}`))
	if err != nil || m.Kind != msgUpdate || m.Seq != 0 {
		t.Fatalf("decoded %+v, %v; want kind update and no seq", m, err)
	}
	ref, _ := unmarshalLine([]byte(`{"KIND":"poll","Seq":4,"kind":"update"}`))
	if ref.Seq != 4 {
		t.Fatalf("encoding/json no longer folds key case: %+v", ref)
	}
}

// jsonFieldNames lists every key the wire schema gives meaning to.
var jsonFieldNames = []string{"kind", "seq", "id", "attr", "value", "batch", "err", "code", "names",
	"var", "index", "server", "lower", "upper", "op", "interrupt", "l", "d", "s"}

// jsonFold folds a key as encoding/json does to match fields.
func jsonFold(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r < utf8.RuneSelf {
			b.WriteRune(unicode.ToUpper(r))
			continue
		}
		b.WriteRune(unicode.ToUpper(unicode.ToLower(r)))
	}
	return b.String()
}

// hasFoldedKey reports whether line is valid JSON holding a key that
// matches a schema name only under encoding/json's case folding.
func hasFoldedKey(line []byte) bool {
	var v any
	if json.Unmarshal(line, &v) != nil {
		return false
	}
	var walk func(any) bool
	walk = func(v any) bool {
		switch v := v.(type) {
		case map[string]any:
			for k, e := range v {
				for _, f := range jsonFieldNames {
					if k != f && jsonFold(k) == jsonFold(f) {
						return true
					}
				}
				if walk(e) {
					return true
				}
			}
		case []any:
			for _, e := range v {
				if walk(e) {
					return true
				}
			}
		}
		return false
	}
	return walk(v)
}

// commaInboundSeeds are server lines of every kind a client reads;
// FuzzCommaInbound and FuzzWireCodec start from them.
var commaInboundSeeds = []string{
	`{"kind":"update","batch":[{"id":{"var":"sysUpTime","server":"srv"},"value":{"kind":0,"l":7}}],"id":{"var":""},"attr":{"lower":{"kind":0},"upper":{"kind":0},"op":0},"value":{"kind":0}}`,
	`{"kind":"update","batch":[{"id":{"var":"sysUpTime"},"value":{"kind":0,"l":8}}]}`,
	`{"kind":"notify","id":{"var":"sysUpTime","server":"srv"},"attr":{"lower":{"kind":0},"upper":{"kind":0},"op":0},"value":{"kind":0,"l":9}}`,
	`{"kind":"poll-reply","seq":1,"id":{"var":"sysName","server":"srv"},"attr":{"lower":{"kind":0},"upper":{"kind":0},"op":0},"value":{"kind":2,"s":"server"}}`,
	`{"kind":"poll-reply","seq":1,"id":{"var":"sysName","server":"srv"},"attr":{"lower":{"kind":0},"upper":{"kind":0},"op":0},"value":{"kind":0},"err":"eem: unknown variable \"sysName\"","code":"unknown-var"}`,
	`{"kind":"poll-reply","seq":1,"id":{"var":"sysName","server":"srv"},"attr":{"lower":{"kind":0},"upper":{"kind":0},"op":0},"value":{"kind":0},"err":"boom"}`,
	`{"kind":"var-list","seq":2,"id":{"var":""},"attr":{"lower":{"kind":0},"upper":{"kind":0},"op":0},"value":{"kind":0},"names":["sysUpTime","ifSpeed"]}`,
	`{"kind":"error","id":{"var":""},"attr":{"lower":{"kind":0},"upper":{"kind":0},"op":0},"value":{"kind":0},"err":"unknown message kind x"}`,
}

// FuzzWireCodec is the differential check of the codec against
// encoding/json: (a) a message built from the inputs — any strings,
// invalid UTF-8 included, any integers and doubles — encodes to
// Marshal's bytes (or panics where Marshal fails), and its line
// decodes as Unmarshal decodes it; (b) an arbitrary line is rejected
// by the codec iff Unmarshal rejects it; (c) where both accept, they
// decode the same message. Lines with a key that matches a field name
// only under case folding are exempt from (b) and (c).
func FuzzWireCodec(f *testing.F) {
	for _, s := range commaInboundSeeds {
		f.Add([]byte(s), "sysUpTime", "srv", int64(1), 0.5, uint8(0))
	}
	for _, s := range []string{
		`{"kind":"p\u006fll","seq":7,"id":{"var":"sys\u0055pTime\ud83d\ude00"},"err":"\"\\\/\b\f\n\r\t"}`,
		`null`, `{"kind":null,"batch":null,"names":[null,"a"]}`,
		`{"x":{"y":[1,{"z":[true,false,null,-0.5e-3]}]},"kind":"update"}`,
		`{"value":{"kind":1,"d":5e-324}}`, `{"value":{"kind":1,"d":1e21}}`, `{"value":{"kind":1,"d":-0}}`,
		`{"KIND":"poll","Seq":2}`,
	} {
		f.Add([]byte(s), "<&>\u2028", "\xff\x00", int64(-1), 5e-324, uint8(7))
	}
	f.Add([]byte(`{}`), "a", "b", int64(math.MinInt64), 1e21, uint8(15))
	f.Add([]byte(`{}`), "", "", int64(0), math.Copysign(0, -1), uint8(8))
	f.Fuzz(func(t *testing.T, line []byte, s1, s2 string, n int64, x float64, sel uint8) {
		m := wireMsg{
			Kind: s1, Seq: n, Err: s2, Code: s1,
			ID: ID{Var: s2, Index: int(n >> 3), Server: s1},
			A: Attr{Lower: Value{Kind: Double, D: x}, Upper: Value{Kind: Kind(sel), L: n, S: s2},
				Op: Operator(sel >> 4), Interrupt: sel&1 != 0},
			V: Value{Kind: String, S: s1, D: -x / 3},
		}
		if sel&2 != 0 {
			m.Batch = []varUpdate{{ID: ID{Var: s2, Index: int(n)}, V: Value{D: x, L: n, S: s1}},
				{ID: ID{Var: s1}, V: DoubleValue(x * 1e-9)}}
		}
		if sel&4 != 0 {
			m.Names = []string{s1, s2, ""}
		}
		if sel&8 != 0 {
			m.Seq, m.Err, m.Code, m.V = 0, "", "", Value{}
		}
		want, err := json.Marshal(m)
		if err != nil {
			defer func() {
				if recover() == nil {
					t.Fatalf("encodeMsg accepted what json.Marshal refuses (%v)", err)
				}
			}()
			encodeMsg(m)
			return
		}
		enc := encodeMsg(m)
		if !bytes.Equal(enc, append(want, '\n')) {
			t.Fatalf("encode:\n got %s\nwant %s", enc, want)
		}
		checkDecode(t, enc[:len(enc)-1])
		if !hasFoldedKey(line) {
			checkDecode(t, line)
		}
	})
}

// updateBatch is a 12-variable periodic update, the shape the
// scenarios' EEM clients receive each tick.
func updateBatch() wireMsg {
	var batch []varUpdate
	for i := 0; i < 12; i++ {
		v := LongValue(int64(i) * 1_000_003)
		if i%2 == 1 {
			v = DoubleValue(float64(i) * 1234.5678)
		}
		batch = append(batch, varUpdate{ID: ID{Var: "link.bw", Index: i % 3, Server: "proxy"}, V: v})
	}
	return wireMsg{Kind: msgUpdate, Batch: batch}
}

var (
	pollMsg      = wireMsg{Kind: msgPoll, Seq: 41, ID: ID{Var: "link.bw", Index: 1, Server: "proxy"}}
	pollReplyMsg = wireMsg{Kind: msgPollReply, Seq: 41, ID: ID{Var: "link.bw", Index: 1, Server: "proxy"},
		V: DoubleValue(19.5e6)}
	sinkLine []byte
	sinkMsg  wireMsg
)

// TestWireCodecAllocs gates the codec's allocations: encoding makes the
// fresh line and nothing else; decoding a poll makes at most the
// strings it returns (the variable and server names; the kind is one
// of the protocol's constants).
func TestWireCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate: the race detector's sync.Pool drops puts at random")
	}
	for _, m := range []wireMsg{updateBatch(), pollMsg, pollReplyMsg} {
		m := m
		if a := testing.AllocsPerRun(200, func() { sinkLine = encodeMsg(m) }); a != 1 {
			t.Errorf("encoding a %s: %.1f allocations, want 1", m.Kind, a)
		}
	}
	line := encodeMsg(pollMsg)
	if a := testing.AllocsPerRun(200, func() { sinkMsg, _ = decodeMsg(line) }); a > 2 {
		t.Errorf("decoding a poll: %.1f allocations, want at most 2", a)
	}
}

func BenchmarkEncodeUpdate(b *testing.B) {
	for _, c := range []struct {
		name string
		m    wireMsg
	}{{"update12", updateBatch()}, {"poll", pollMsg}, {"poll-reply", pollReplyMsg}} {
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
	}{{"update12", updateBatch()}, {"poll", pollMsg}, {"poll-reply", pollReplyMsg}} {
		line := encodeMsg(c.m)
		line = line[:len(line)-1]
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkMsg, _ = decodeMsg(line)
			}
		})
	}
}
