package proxy_test

import (
	"bytes"
	"testing"

	"repro/internal/filter"
	"repro/internal/obs"
	"repro/internal/proxy"
	"repro/internal/tcp"
)

// TestPanickingFilterQuarantined is the quarantine regression test: an
// always-panicking filter must be detached after QuarantineStrikes
// panics, the stream must keep flowing unmodified (fail open), the
// panics must surface as obs events and counters — and the proxy must
// never crash.
func TestPanickingFilterQuarantined(t *testing.T) {
	cat := filter.NewCatalog()
	cat.Register("bomb", func() filter.Factory {
		return &fakeFilter{name: "bomb",
			onNew: func(env filter.Env, k filter.Key, args []string) error {
				_, err := env.Attach(k, filter.Hooks{
					Filter:   "bomb",
					Priority: filter.Normal,
					In:       func(p *filter.Packet) { panic("bomb: rigged to blow") },
				})
				return err
			}}
	})
	rig := newRig(t, cat)
	bus := obs.NewBus(rig.sched, 4096)
	rig.prox.SetObs(bus, nil)
	rig.prox.Exec("load bomb")
	if out := rig.prox.Exec("add bomb 0.0.0.0 0 0.0.0.0 0"); out != "" {
		t.Fatalf("add bomb: %q", out)
	}

	payload := bytes.Repeat([]byte("resilience"), 400)
	var got []byte
	done := false
	rig.mStack.Listen(2000, func(c *tcp.Conn) {
		c.OnData = func(b []byte) { got = append(got, b...) }
		c.OnRemoteClose = func() { done = true; c.Close() }
	})
	client, err := rig.wStack.Connect(rig.mobile.Addr(), 2000)
	if err != nil {
		t.Fatal(err)
	}
	client.OnEstablished = func() { client.Write(payload); client.Close() }
	rig.sched.RunFor(30e9)

	// Transparency: the transfer completes intact despite the filter
	// detonating on the stream's first packets.
	if !done {
		t.Fatal("transfer did not complete under a panicking filter")
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted: got %d bytes, want %d", len(got), len(payload))
	}

	// Containment: the wild-card registration instantiates the filter
	// once per stream direction, so exactly QuarantineStrikes panics
	// and one quarantine per direction — then silence.
	if n := rig.prox.Stats.HookPanics; n != 2*proxy.QuarantineStrikes {
		t.Fatalf("HookPanics = %d, want %d", n, 2*proxy.QuarantineStrikes)
	}
	if n := rig.prox.Stats.FilterQuarantines; n != 2 {
		t.Fatalf("FilterQuarantines = %d, want 2", n)
	}

	// Observability: the panic and the quarantine are both events.
	var panics, quarantines int
	for _, e := range bus.Events() {
		if e.Subsys != "proxy" {
			continue
		}
		switch e.Kind {
		case "filter-panic":
			panics++
		case "filter-quarantine":
			quarantines++
		}
	}
	if panics != 2*proxy.QuarantineStrikes || quarantines != 2 {
		t.Fatalf("events: %d filter-panic (want %d), %d filter-quarantine (want 2)",
			panics, 2*proxy.QuarantineStrikes, quarantines)
	}
}

// TestQuarantineFailsOpenNotRebuilt pins the tombstone behavior: after
// the quarantined filter empties its queue, later packets on the same
// stream must NOT rebuild the queue (which would re-instantiate the
// broken filter and buy it another round of panics).
func TestQuarantineFailsOpenNotRebuilt(t *testing.T) {
	instantiations := 0
	cat := filter.NewCatalog()
	cat.Register("bomb", func() filter.Factory {
		return &fakeFilter{name: "bomb",
			onNew: func(env filter.Env, k filter.Key, args []string) error {
				instantiations++
				_, err := env.Attach(k, filter.Hooks{
					Filter:   "bomb",
					Priority: filter.Normal,
					In:       func(p *filter.Packet) { panic("again") },
				})
				return err
			}}
	})
	rig := newRig(t, cat)
	rig.prox.Exec("load bomb")
	rig.prox.Exec("add bomb 0.0.0.0 0 0.0.0.0 0")

	rig.mStack.Listen(2000, func(c *tcp.Conn) {})
	client, err := rig.wStack.Connect(rig.mobile.Addr(), 2000)
	if err != nil {
		t.Fatal(err)
	}
	client.OnEstablished = func() { client.Write(bytes.Repeat([]byte("x"), 4000)) }
	rig.sched.RunFor(30e9)

	// One instantiation per direction of the stream at most; a rebuild
	// loop would push this far higher (one per QuarantineStrikes pkts).
	if instantiations > 2 {
		t.Fatalf("broken filter instantiated %d times — queue rebuilt after quarantine", instantiations)
	}
	if n := rig.prox.Stats.HookPanics; n > 2*proxy.QuarantineStrikes {
		t.Fatalf("HookPanics = %d — quarantine did not stick", n)
	}
}
