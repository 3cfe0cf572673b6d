package proxy_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/filter"
	"repro/internal/ip"
	"repro/internal/tcp"
)

var errTestInit = errors.New("filter init failed")

// TestAddFilterRollsBackFailedRegistration covers the state-rollback
// bug: "add" on an exact key used to append the registry entry before
// instantiating the filter, so a failed instantiation left a dangling
// registration behind — the next matching packet would silently respawn
// the broken filter through buildQueue.
func TestAddFilterRollsBackFailedRegistration(t *testing.T) {
	newCalls := 0
	cat := filter.NewCatalog()
	cat.Register("flaky", func() filter.Factory {
		return &fakeFilter{name: "flaky", priority: filter.Normal,
			onNew: func(env filter.Env, k filter.Key, args []string) error {
				newCalls++
				if newCalls == 1 {
					return errTestInit
				}
				_, err := env.Attach(k, filter.Hooks{Filter: "flaky", Priority: filter.Normal})
				return err
			}}
	})
	rig := newRig(t, cat)
	p := rig.prox
	p.Exec("load flaky")

	const key = "10.1.0.1 7 10.2.0.1 2000"
	if out := p.Exec("add flaky " + key); !strings.HasPrefix(out, "error") {
		t.Fatalf("failed add reported %q, want error", out)
	}
	if newCalls != 1 {
		t.Fatalf("factory.New called %d times during add, want 1", newCalls)
	}

	// Drive a packet with exactly that key through the proxy. With the
	// registration rolled back the factory must NOT be re-invoked.
	seg := tcp.Segment{SrcPort: 7, DstPort: 2000, Seq: 1, Flags: tcp.FlagSYN, Window: 1000}
	rig.wired.SendIP(rig.mobile.Addr(), ip.ProtoTCP, seg.Marshal(rig.wired.Addr(), rig.mobile.Addr()))
	rig.sched.RunFor(1e9)

	if newCalls != 1 {
		t.Fatalf("factory.New called %d times after traffic, want 1 (dangling registration respawned the filter)", newCalls)
	}
	if streams := p.Streams(); len(streams) != 0 {
		t.Fatalf("failed add left live streams: %v", streams)
	}

	// A later add of the (now healthy) filter must work normally.
	if out := p.Exec("add flaky " + key); out != "" {
		t.Fatalf("second add: %q", out)
	}
	if newCalls != 2 {
		t.Fatalf("factory.New called %d times, want 2", newCalls)
	}
	if streams := p.Streams(); len(streams) != 1 {
		t.Fatalf("healthy add produced %d streams, want 1", len(streams))
	}
}
