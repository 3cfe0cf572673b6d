package flowlog

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/ip"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/workload"
)

var (
	cliIP = ip.MustParseAddr("11.11.10.99")
	srvIP = ip.MustParseAddr("11.11.10.10")
	fwd   = filter.Key{SrcIP: cliIP, SrcPort: 7, DstIP: srvIP, DstPort: 5001}
)

// clock is a settable virtual clock for table tests.
type clock struct{ t sim.Time }

func (c *clock) now() sim.Time          { return c.t }
func (c *clock) advance(d sim.Duration) { c.t = c.t.Add(d) }

func newTestTable(cfg Config) (*Table, *clock) {
	c := &clock{}
	return New(c.now, cfg), c
}

// rec builds a segment, records it and returns Record's tag. rawLen
// is approximated as 40 + payload.
func rec(t *Table, k filter.Key, flags byte, seq, ack uint32, win uint16, payload int) *Tag {
	s := &tcp.Segment{
		SrcPort: k.SrcPort, DstPort: k.DstPort,
		Seq: seq, Ack: ack, Flags: flags, Window: win,
	}
	if payload > 0 {
		s.Payload = make([]byte, payload)
	}
	return t.Record(k, s, 40+payload)
}

// one finds the single record matching state, failing otherwise.
func one(t *testing.T, tbl *Table, state string) Record {
	t.Helper()
	var found []Record
	for _, r := range tbl.AppendRecords(nil) {
		if r.State == state {
			found = append(found, r)
		}
	}
	if len(found) != 1 {
		t.Fatalf("want exactly one %q record, got %d (all: %v)", state, len(found), tbl.AppendRecords(nil))
	}
	return found[0]
}

func TestHandshakeRTTAndCounters(t *testing.T) {
	tbl, clk := newTestTable(Config{})
	rec(tbl, fwd, tcp.FlagSYN, 100, 0, 65535, 0)
	clk.advance(10 * time.Millisecond)
	rec(tbl, fwd.Reverse(), tcp.FlagSYN|tcp.FlagACK, 900, 101, 65535, 0)
	rec(tbl, fwd, tcp.FlagACK, 101, 901, 65535, 0)

	r := one(t, tbl, StateActive)
	if r.Key != fwd {
		t.Fatalf("record key %v, want initiator orientation %v", r.Key, fwd)
	}
	if r.Score != ScoreHandshake {
		t.Fatalf("score %d, want %d", r.Score, ScoreHandshake)
	}
	if r.Init.Syn != 1 || r.Resp.SynAck != 1 {
		t.Fatalf("syn/synack = %d/%d, want 1/1", r.Init.Syn, r.Resp.SynAck)
	}
	if r.Init.Pkts != 2 || r.Resp.Pkts != 1 {
		t.Fatalf("pkts %d/%d, want 2/1", r.Init.Pkts, r.Resp.Pkts)
	}
	if want := int64(10_000); r.SRTTMicros != want {
		t.Fatalf("handshake srtt %dµs, want %d", r.SRTTMicros, want)
	}

	// A data→ACK sample folds in with gain 1/8.
	rec(tbl, fwd, tcp.FlagACK|tcp.FlagPSH, 101, 901, 65535, 100)
	clk.advance(2 * time.Millisecond)
	rec(tbl, fwd.Reverse(), tcp.FlagACK, 901, 201, 65535, 0)
	r = one(t, tbl, StateActive)
	if want := int64(10_000 + (2_000-10_000)/8); r.SRTTMicros != want {
		t.Fatalf("srtt after data sample %dµs, want %d", r.SRTTMicros, want)
	}
	if snap := tbl.Stats(); snap.RTTSamples != 2 {
		t.Fatalf("RTTSamples %d, want 2", snap.RTTSamples)
	}
}

// TestRetransDetection runs the same four segments from three
// sequence bases: 0; one where the first segment ends exactly on the
// 2^32 wrap; and one where the frontier sits just below the wrap and
// the partial overlap ends past it, which only a wrap-safe comparison
// counts as new data.
func TestRetransDetection(t *testing.T) {
	for _, base := range []uint32{0, 0xFFFFFFFF - 1099, 0xFFFFFFFF - 1119} {
		t.Run(fmt.Sprintf("base=%#x", base), func(t *testing.T) {
			tbl, _ := newTestTable(Config{})
			rec(tbl, fwd, tcp.FlagACK, base+1000, 1, 65535, 100) // new data, frontier base+1100
			rec(tbl, fwd, tcp.FlagACK, base+1000, 1, 65535, 100) // full retransmission
			rec(tbl, fwd, tcp.FlagACK, base+1050, 1, 65535, 100) // partial overlap: new data
			rec(tbl, fwd, tcp.FlagACK, base+1100, 1, 65535, 50)  // fully below frontier base+1150
			r := one(t, tbl, StateActive)
			if r.Init.Retrans != 2 {
				t.Fatalf("retrans %d, want 2", r.Init.Retrans)
			}
			if snap := tbl.Stats(); snap.Retrans != 2 || snap.DataPkts != 4 {
				t.Fatalf("stats retrans/data = %d/%d, want 2/4", snap.Retrans, snap.DataPkts)
			}
		})
	}
}

func TestRetransmittedSYNGivesNoRTTSample(t *testing.T) {
	tbl, clk := newTestTable(Config{})
	rec(tbl, fwd, tcp.FlagSYN, 100, 0, 65535, 0)
	clk.advance(time.Second)
	rec(tbl, fwd, tcp.FlagSYN, 100, 0, 65535, 0) // SYN retransmission
	clk.advance(10 * time.Millisecond)
	rec(tbl, fwd.Reverse(), tcp.FlagSYN|tcp.FlagACK, 900, 101, 65535, 0)
	r := one(t, tbl, StateActive)
	if r.SRTTMicros != 0 {
		t.Fatalf("srtt %dµs after ambiguous handshake, want 0 (Karn)", r.SRTTMicros)
	}
	if r.Init.Retrans != 1 {
		t.Fatalf("SYN retrans not counted: %d", r.Init.Retrans)
	}
}

func TestZeroWindowEvents(t *testing.T) {
	tbl, _ := newTestTable(Config{})
	rec(tbl, fwd, tcp.FlagSYN, 100, 0, 65535, 0)
	rec(tbl, fwd.Reverse(), tcp.FlagACK, 900, 101, 0, 0) // zero-window ACK
	rec(tbl, fwd.Reverse(), tcp.FlagRST, 900, 0, 0, 0)   // RST window is not a zwin event
	r := one(t, tbl, StateReset)
	if r.Resp.ZeroWin != 1 {
		t.Fatalf("zero-window events %d, want 1", r.Resp.ZeroWin)
	}
}

func TestCloseTransitions(t *testing.T) {
	tbl, clk := newTestTable(Config{IdleTimeout: time.Second})

	// FIN in both directions closes.
	rec(tbl, fwd, tcp.FlagSYN, 100, 0, 65535, 0)
	rec(tbl, fwd, tcp.FlagFIN|tcp.FlagACK, 101, 1, 65535, 0)
	rec(tbl, fwd.Reverse(), tcp.FlagFIN|tcp.FlagACK, 900, 102, 65535, 0)
	if r := one(t, tbl, StateClosed); r.Key != fwd {
		t.Fatalf("closed record key %v, want %v", r.Key, fwd)
	}
	if got := tbl.ActiveFlows(); got != 0 {
		t.Fatalf("active after FIN-FIN %d, want 0", got)
	}

	// The trailing pure ACK of the teardown must not reopen a flow.
	rec(tbl, fwd, tcp.FlagACK, 102, 901, 65535, 0)
	if got := tbl.ActiveFlows(); got != 0 {
		t.Fatalf("trailing ACK opened a ghost flow (active=%d)", got)
	}

	// Idle timeout closes via lazy aging on a later unrelated packet.
	k2 := filter.Key{SrcIP: cliIP, SrcPort: 8, DstIP: srvIP, DstPort: 5001}
	rec(tbl, k2, tcp.FlagSYN, 1, 0, 65535, 0)
	clk.advance(2 * time.Second)
	k3 := filter.Key{SrcIP: cliIP, SrcPort: 9, DstIP: srvIP, DstPort: 5001}
	rec(tbl, k3, tcp.FlagSYN, 1, 0, 65535, 0)
	if r := one(t, tbl, StateIdle); r.Key != k2 {
		t.Fatalf("idle-closed record key %v, want %v", r.Key, k2)
	}
	snap := tbl.Stats()
	if snap.IdleClosed != 1 || snap.Closed != 2 || snap.Active != 1 {
		t.Fatalf("snapshot idle/closed/active = %d/%d/%d, want 1/2/1",
			snap.IdleClosed, snap.Closed, snap.Active)
	}
}

func TestEvictionBound(t *testing.T) {
	tbl, _ := newTestTable(Config{MaxActive: 4, ClosedRing: 8})
	for port := uint16(1000); port < 1020; port++ {
		k := filter.Key{SrcIP: cliIP, SrcPort: port, DstIP: srvIP, DstPort: 5001}
		rec(tbl, k, tcp.FlagSYN, 1, 0, 65535, 0)
		if got := tbl.ActiveFlows(); got > 4 {
			t.Fatalf("active %d exceeds MaxActive=4", got)
		}
	}
	snap := tbl.Stats()
	if snap.Active != 4 || snap.Evicted != 16 || snap.Opened != 20 {
		t.Fatalf("active/evicted/opened = %d/%d/%d, want 4/16/20",
			snap.Active, snap.Evicted, snap.Opened)
	}
	// The closed ring holds only its bound (the 8 most recent).
	recs := tbl.AppendRecords(nil)
	if len(recs) != 4+8 {
		t.Fatalf("records %d, want 12 (4 active + 8 ring)", len(recs))
	}
}

func TestDirectionCanonicalization(t *testing.T) {
	// Both directions of the same stream must land on one record, with
	// the record oriented by the initiator even when the responder's
	// endpoint sorts first canonically.
	tbl, _ := newTestTable(Config{})
	rev := fwd.Reverse()
	rec(tbl, rev, tcp.FlagSYN, 500, 0, 65535, 0) // "server side" initiates
	rec(tbl, fwd, tcp.FlagSYN|tcp.FlagACK, 100, 501, 65535, 0)
	recs := tbl.AppendRecords(nil)
	if len(recs) != 1 {
		t.Fatalf("both directions should share one record, got %d", len(recs))
	}
	if recs[0].Key != rev {
		t.Fatalf("record key %v, want initiator orientation %v", recs[0].Key, rev)
	}
	if recs[0].Init.Syn != 1 || recs[0].Resp.SynAck != 1 {
		t.Fatalf("init/resp mixup: %+v", recs[0])
	}
}

func TestRenderDeterministicUnderOrder(t *testing.T) {
	tbl, clk := newTestTable(Config{})
	rng := rand.New(rand.NewSource(42))
	for port := uint16(2000); port < 2040; port++ {
		k := filter.Key{SrcIP: cliIP, SrcPort: port, DstIP: srvIP, DstPort: 5001}
		rec(tbl, k, tcp.FlagSYN, 1, 0, 65535, 0)
		rec(tbl, k, tcp.FlagACK, 2, 1, 65535, int(port%7)*10)
		if port%3 == 0 {
			rec(tbl, k, tcp.FlagFIN|tcp.FlagACK, 100, 1, 65535, 0)
			rec(tbl, k.Reverse(), tcp.FlagFIN|tcp.FlagACK, 1, 101, 65535, 0)
		}
		clk.advance(time.Millisecond)
	}
	recs := tbl.AppendRecords(nil)
	want := Render(recs, 64)
	for trial := 0; trial < 5; trial++ {
		shuffled := append([]Record(nil), recs...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := Render(shuffled, 64); got != want {
			t.Fatalf("Render depends on input order:\n got %q\nwant %q", got, want)
		}
	}
	if !strings.HasPrefix(want, "flows: ") {
		t.Fatalf("missing header: %q", want)
	}
}

// TestChurnStormBound is the PR 8 bugfix-sweep regression: a
// workload.Churn storm (fresh key per flow, FIN teardown) must never
// grow the active table — every flow closes on its second FIN — and a
// teardown-free SYN flood must saturate at MaxActive, not beyond.
func TestChurnStormBound(t *testing.T) {
	tbl, _ := newTestTable(Config{MaxActive: 64})
	c := workload.NewChurn(workload.ChurnConfig{DataPkts: 2, PayloadSize: 64})
	peak := int64(0)
	st := c.Drive(5000, func(raw []byte) {
		pkt, err := filter.Parse(raw)
		if err != nil {
			t.Fatalf("churn packet unparseable: %v", err)
		}
		if pkt.TCP != nil {
			tbl.Record(pkt.Key, pkt.TCP, len(raw))
		}
		if a := tbl.ActiveFlows(); a > peak {
			peak = a
		}
		pkt.Release()
	})
	snap := tbl.Stats()
	if snap.Active != 0 {
		t.Fatalf("churn left %d active flows, want 0 (all FIN-closed)", snap.Active)
	}
	if peak > 1 {
		t.Fatalf("churn peak active %d, want <= 1 (flows are sequential)", peak)
	}
	if snap.Opened != int64(st.Flows) || snap.Closed != int64(st.Flows) {
		t.Fatalf("opened/closed = %d/%d, want %d/%d", snap.Opened, snap.Closed, st.Flows, st.Flows)
	}
	if snap.Evicted != 0 {
		t.Fatalf("churn evicted %d flows, want 0", snap.Evicted)
	}

	// SYN flood with no teardown: the LRU bound holds.
	flood, _ := newTestTable(Config{MaxActive: 64})
	for i := 0; i < 10_000; i++ {
		k := filter.Key{
			SrcIP: cliIP, SrcPort: uint16(1024 + i%60000),
			DstIP: srvIP + ip.Addr(i/60000), DstPort: 5001,
		}
		rec(flood, k, tcp.FlagSYN, 1, 0, 65535, 0)
		if a := flood.ActiveFlows(); a > 64 {
			t.Fatalf("SYN flood grew active table to %d (> MaxActive=64)", a)
		}
	}
	if got := flood.ActiveFlows(); got != 64 {
		t.Fatalf("SYN flood steady state %d, want 64", got)
	}
}

// TestSteadyStateRecordZeroAlloc pins the hot-path contract at the
// package level: folding segments of an established flow allocates
// nothing.
func TestSteadyStateRecordZeroAlloc(t *testing.T) {
	tbl, _ := newTestTable(Config{})
	seg := &tcp.Segment{
		SrcPort: fwd.SrcPort, DstPort: fwd.DstPort,
		Seq: 1, Ack: 1, Flags: tcp.FlagACK, Window: 65535,
		Payload: make([]byte, 100),
	}
	tbl.Record(fwd, seg, 140) // open
	seq := uint32(101)
	allocs := testing.AllocsPerRun(1000, func() {
		seg.Seq = seq
		seq += 100
		tbl.Record(fwd, seg, 140)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Record allocates %.1f/op, want 0", allocs)
	}
}

// TestTagLifetime pins the owner's slot: one tag per direction of a
// flow, kept across its segments, nil where the segment leaves no
// record, and zero again whenever a flow reopens after a RST, a second
// FIN, an eviction at MaxActive or an idle expiry.
func TestTagLifetime(t *testing.T) {
	stamp := func(tag *Tag) {
		tag.Val, tag.Gen = "answer", 7
	}
	zero := func(t *testing.T, tag *Tag, when string) {
		t.Helper()
		if tag == nil || *tag != (Tag{}) {
			t.Fatalf("%s: tag %v, want a zero tag", when, tag)
		}
	}
	other := filter.Key{SrcIP: cliIP, SrcPort: 8, DstIP: srvIP, DstPort: 5001}
	for _, c := range []struct {
		name  string
		cfg   Config
		close func(tbl *Table, c *clock) *Tag // the tag of fwd's closing segment, if any
	}{
		{"rst", Config{}, func(tbl *Table, _ *clock) *Tag {
			return rec(tbl, fwd.Reverse(), tcp.FlagRST, 900, 0, 0, 0)
		}},
		{"second fin", Config{}, func(tbl *Table, _ *clock) *Tag {
			rec(tbl, fwd, tcp.FlagFIN|tcp.FlagACK, 200, 900, 65535, 0)
			return rec(tbl, fwd.Reverse(), tcp.FlagFIN|tcp.FlagACK, 900, 201, 65535, 0)
		}},
		{"evict", Config{MaxActive: 1}, func(tbl *Table, _ *clock) *Tag {
			rec(tbl, other, tcp.FlagSYN, 50, 0, 65535, 0) // another flow's tag
			return nil
		}},
		{"idle", Config{}, func(_ *Table, c *clock) *Tag {
			c.advance(DefaultIdleTimeout)
			return nil
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			tbl, clk := newTestTable(c.cfg)
			if tag := rec(tbl, fwd, tcp.FlagACK, 1, 1, 65535, 0); tag != nil {
				t.Fatal("a pure ACK with no flow returned a tag")
			}
			tag := rec(tbl, fwd, tcp.FlagSYN, 100, 0, 65535, 0)
			zero(t, tag, "opening segment")
			stamp(tag)
			rev := rec(tbl, fwd.Reverse(), tcp.FlagSYN|tcp.FlagACK, 800, 101, 65535, 0)
			zero(t, rev, "first reverse segment")
			if rec(tbl, fwd, tcp.FlagACK, 101, 801, 65535, 0) != tag || tag.Gen != 7 {
				t.Fatal("a later segment of the flow did not return its stamped tag")
			}
			if got := c.close(tbl, clk); got != nil {
				t.Fatalf("the closing segment returned tag %v, want nil", got)
			}
			zero(t, rec(tbl, fwd, tcp.FlagACK, 300, 900, 65535, 10), "reopened flow")
		})
	}
}
