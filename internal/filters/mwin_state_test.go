package filters

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/ip"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tcp"
)

func TestMwinSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 200; trial++ {
		src := &mwinInst{
			haveAck: rng.Intn(2) == 1,
			active:  rng.Intn(2) == 1,
			lastAck: rng.Uint32(),
			window:  uint16(rng.Intn(1 << 16)),
		}
		snap, err := src.SnapshotState()
		if err != nil {
			t.Fatalf("trial %d: snapshot: %v", trial, err)
		}
		dst := &mwinInst{ackedBytes: 999}
		if err := dst.RestoreState(snap); err != nil {
			t.Fatalf("trial %d: restore: %v", trial, err)
		}
		if dst.haveAck != src.haveAck || dst.active != src.active ||
			dst.lastAck != src.lastAck || dst.window != src.window {
			t.Fatalf("trial %d: mismatch: got %+v, want %+v", trial, dst, src)
		}
		if dst.ackedBytes != 0 {
			t.Fatal("restore must reset the partial-interval ACK count")
		}
		snap2, err := dst.SnapshotState()
		if err != nil {
			t.Fatalf("trial %d: re-snapshot: %v", trial, err)
		}
		if !bytes.Equal(snap, snap2) {
			t.Fatalf("trial %d: round trip not byte-exact", trial)
		}
	}
}

func TestMwinRestoreErrors(t *testing.T) {
	snap, err := (&mwinInst{active: true, window: 8192, lastAck: 12345}).SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(snap); n++ {
		if err := (&mwinInst{}).RestoreState(snap[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	if err := (&mwinInst{}).RestoreState(append(append([]byte(nil), snap...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// stubEnv implements filter.Env with no measurements behind it —
// FlowSRTT never has a sample — so it exercises mwin's fail-open path.
type stubEnv struct {
	sched *sim.Scheduler
	hooks []filter.Hooks
}

func (e *stubEnv) Clock() *sim.Scheduler { return e.sched }
func (e *stubEnv) Attach(k filter.Key, h filter.Hooks) (func(), error) {
	e.hooks = append(e.hooks, h)
	return func() {}, nil
}
func (e *stubEnv) RemoveStream(filter.Key)                       {}
func (e *stubEnv) Inject([]byte)                                 {}
func (e *stubEnv) Emit(string, string, filter.Key, ...obs.Field) {}
func (e *stubEnv) Metric(string, int) (float64, bool)            { return 0, false }
func (e *stubEnv) FlowSRTT(filter.Key) (time.Duration, bool)     { return 0, false }
func (e *stubEnv) Spawn(string, filter.Key, []string) error      { return nil }

// TestMwinPassiveWithoutFlowSampler: with no flow log wired into the
// Env, mwin must attach but never modify a packet (fail open).
func TestMwinPassiveWithoutFlowSampler(t *testing.T) {
	env := &stubEnv{sched: sim.NewScheduler(1)}
	k := filter.Key{
		SrcIP: ip.MustParseAddr("11.11.10.99"), SrcPort: 7,
		DstIP: ip.MustParseAddr("11.11.10.10"), DstPort: 5001,
	}
	if err := NewMWin().New(env, k, nil); err != nil {
		t.Fatal(err)
	}
	if len(env.hooks) != 1 {
		t.Fatalf("attached %d hooks, want 1", len(env.hooks))
	}
	env.sched.RunFor(5 * time.Second) // many rolls with no sampler
	seg := tcp.Segment{
		SrcPort: 5001, DstPort: 7, Flags: tcp.FlagACK, Ack: 5000, Window: 65535,
	}
	h := ip.Header{TTL: 64, Protocol: ip.ProtoTCP,
		Src: k.DstIP, Dst: k.SrcIP}
	raw, err := h.Marshal(seg.Marshal(h.Src, h.Dst))
	if err != nil {
		t.Fatal(err)
	}
	p, err := filter.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	env.hooks[0].Out(p)
	if p.TCP.Window != 65535 || p.Dirty() {
		t.Fatalf("samplerless mwin modified the packet: window=%d dirty=%v",
			p.TCP.Window, p.Dirty())
	}
}

// TestMwinBadArgs checks that mwin and rdrop refuse every argument
// outside their ranges, NaN (which fails every comparison) included.
func TestMwinBadArgs(t *testing.T) {
	env := &stubEnv{sched: sim.NewScheduler(1)}
	k := filter.Key{SrcIP: 1, SrcPort: 2, DstIP: 3, DstPort: 4}
	for _, row := range []struct {
		f    filter.Factory
		args []string
	}{
		{NewMWin(), []string{"0.5"}},
		{NewMWin(), []string{"17"}},
		{NewMWin(), []string{"x"}},
		{NewMWin(), []string{"NaN"}},
		{NewMWin(), []string{"2", "0"}},
		{NewMWin(), []string{"2", "-5"}},
		{NewMWin(), []string{"2", "ms"}},
		{NewRDrop(), []string{"-1"}},
		{NewRDrop(), []string{"101"}},
		{NewRDrop(), []string{"x"}},
		{NewRDrop(), []string{"NaN"}},
	} {
		if err := row.f.New(env, k, row.args); err == nil {
			t.Errorf("%s: args %v accepted", row.f.Name(), row.args)
		}
	}
}
