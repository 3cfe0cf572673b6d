package proxy

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/filter"
	"repro/internal/obs"
)

// grower is a Normal-priority filter that pushes every payload past
// the largest IPv4 datagram, so nothing can re-marshal it.
var grower = hookFilter{name: "grow", hooks: func(filter.Env, filter.Key) filter.Hooks {
	return filter.Hooks{In: func(p *filter.Packet) {
		p.TCP.Payload = make([]byte, 1<<16)
		p.MarkDirty()
	}}
}}

// failingSnapshot is a StateSnapshotter that can never be taken.
type failingSnapshot struct{}

func (failingSnapshot) SnapshotState() ([]byte, error) { return nil, errors.New("snapshot refused") }
func (failingSnapshot) RestoreState([]byte) error      { return nil }

var snapFails = hookFilter{name: "snapfail", hooks: func(filter.Env, filter.Key) filter.Hooks {
	return filter.Hooks{State: failingSnapshot{}}
}}

// TestFailureSitesEmit drives every swallowed failure that input can
// reach and finds its event on the proxy's bus, keyed by the stream.
// Four failure branches stay unreached because they marshal a datagram
// of fixed or shrunk size, which cannot exceed the IPv4 limit: ttsf's
// synthesised ACK, wsize's ZWSM, cache's response and translate's
// remarshal.
func TestFailureSitesEmit(t *testing.T) {
	k, key := lifecycleKey, "10.1.0.1 80 10.2.0.1 2000"
	for _, tc := range []struct {
		name, subsys, kind string
		cmds               []string
		run                func(t *testing.T, p *Proxy)
	}{
		{
			name: "tcp repairs an oversized edit", subsys: "tcp", kind: "remarshal-failed",
			cmds: []string{"load tcp", "add tcp " + key, "add grow " + key},
			run:  func(t *testing.T, p *Proxy) { p.Intercept(lifecyclePacket(t, k, 'x'), nil) },
		},
		{
			name: "proxy emits an oversized edit stale", subsys: "proxy", kind: "remarshal-failed",
			cmds: []string{"add grow " + key},
			run:  func(t *testing.T, p *Proxy) { p.Intercept(lifecyclePacket(t, k, 'x'), nil) },
		},
		{
			name: "wild-card insertion fails", subsys: "proxy", kind: "insert-failed",
			cmds: []string{"add fail 0.0.0.0 0 0.0.0.0 0"},
			run:  func(t *testing.T, p *Proxy) { p.Intercept(lifecyclePacket(t, k), nil) },
		},
		{
			name: "decomp meets an unframed payload", subsys: "decomp", kind: "passthrough",
			cmds: []string{"load decomp", "add decomp " + key},
			run: func(t *testing.T, p *Proxy) {
				raw := lifecyclePacket(t, k, []byte("\xffnot a comp frame")...)
				out := p.Intercept(raw, nil)
				if len(out) != 1 || !bytes.Equal(out[0], raw) {
					t.Fatal("decomp did not pass the unframed segment through unchanged")
				}
			},
		},
		{
			name: "snapshot fails at export", subsys: "proxy", kind: "snapshot-failed",
			cmds: []string{"add snapfail " + key},
			run: func(t *testing.T, p *Proxy) {
				ex, err := p.ExportStream(k)
				if err != nil {
					t.Fatal(err)
				}
				if len(ex.States) != 0 {
					t.Fatalf("a failed snapshot was exported: %+v", ex.States)
				}
			},
		},
		{
			name: "imported state has no attachment", subsys: "proxy", kind: "state-orphaned",
			run: func(t *testing.T, p *Proxy) {
				ex := &StreamExport{Key: k, States: []FilterState{{Filter: "ttsf", Key: k, State: []byte{1}}}}
				if err := p.ImportStream(ex); err != nil {
					t.Fatal(err)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, _, bus := lifecycleProxy(t, grower, snapFails, failFactory{})
			for _, cmd := range tc.cmds {
				if out := p.Exec(cmd); strings.HasPrefix(out, "error:") {
					t.Fatalf("%s: %s", cmd, out)
				}
			}
			tc.run(t, p)
			if n := bus.Count(tc.subsys, tc.kind); n != 1 {
				t.Fatalf("%d %s %s events, want 1; bus:\n%s", n, tc.subsys, tc.kind, bus.Tail(10))
			}
			for _, e := range bus.Events() {
				if e.Subsys == tc.subsys && e.Kind == tc.kind && (!e.HasStream || e.Stream != obs.Stream(k)) {
					t.Fatalf("event %q, want it keyed by stream %v", e.String(), k)
				}
			}
		})
	}
}
