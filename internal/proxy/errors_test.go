package proxy_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/filter"
	"repro/internal/filters"
	"repro/internal/netsim"
	"repro/internal/proxy"
	"repro/internal/sim"
)

func newErrRig(t *testing.T) *proxy.Proxy {
	t.Helper()
	s := sim.NewScheduler(1)
	n := netsim.New(s)
	node := n.AddNode("proxyhost")
	cat := filter.NewCatalog()
	filters.RegisterAll(cat)
	return proxy.NewDetached(node, cat)
}

func mustKey(t *testing.T) filter.Key {
	t.Helper()
	k, err := filter.ParseKey([]string{"10.0.0.1", "7", "10.0.0.2", "80"})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestTypedControlErrors pins the sentinel classification of every
// control-path failure and the exact legacy diagnostic text riding on
// it: errors.Is must classify without the message changing byte-wise.
func TestTypedControlErrors(t *testing.T) {
	key := mustKey(t)
	cases := []struct {
		name     string
		op       func(p *proxy.Proxy) error
		want     error
		contains string
	}{
		{"load-duplicate", func(p *proxy.Proxy) error {
			if _, err := p.LoadFilter("rdrop"); err != nil {
				return err
			}
			_, err := p.LoadFilter("rdrop")
			return err
		}, proxy.ErrAlreadyLoaded, `filter "rdrop" already loaded`},
		{"load-unknown", func(p *proxy.Proxy) error {
			_, err := p.LoadFilter("no-such-lib")
			return err
		}, filter.ErrUnknownFilter, `no factory "no-such-lib" in catalog`},
		{"remove-not-loaded", func(p *proxy.Proxy) error {
			return p.UnloadFilter("rdrop")
		}, proxy.ErrNotLoaded, `filter "rdrop" not loaded`},
		{"add-not-loaded", func(p *proxy.Proxy) error {
			return p.AddFilter("rdrop", key, nil)
		}, proxy.ErrNotLoaded, `filter "rdrop" not loaded`},
		{"delete-not-loaded", func(p *proxy.Proxy) error {
			return p.DeleteFilter("rdrop", key)
		}, proxy.ErrNotLoaded, `filter "rdrop" not loaded`},
		{"delete-no-stream", func(p *proxy.Proxy) error {
			if _, err := p.LoadFilter("rdrop"); err != nil {
				return err
			}
			return p.DeleteFilter("rdrop", key)
		}, proxy.ErrNoSuchStream, `no such stream`},
	}
	for _, c := range cases {
		p := newErrRig(t)
		err := c.op(p)
		if err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		if !errors.Is(err, c.want) {
			t.Errorf("%s: errors.Is(%v, %v) = false", c.name, err, c.want)
		}
		if !strings.Contains(err.Error(), c.contains) {
			t.Errorf("%s: message %q missing %q", c.name, err, c.contains)
		}
	}
}

// TestDeleteAfterAddSucceeds: a registration created by add is a valid
// delete target even when no live stream ever attached — the historic
// fail-silent contract that examples and tests depend on.
func TestDeleteAfterAddSucceeds(t *testing.T) {
	p := newErrRig(t)
	key := mustKey(t)
	if _, err := p.LoadFilter("rdrop"); err != nil {
		t.Fatal(err)
	}
	if err := p.AddFilter("rdrop", key, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.DeleteFilter("rdrop", key); err != nil {
		t.Fatalf("delete of a registered key errored: %v", err)
	}
	// A second delete of the same key now has nothing to remove.
	if err := p.DeleteFilter("rdrop", key); !errors.Is(err, proxy.ErrNoSuchStream) {
		t.Fatalf("repeat delete: err = %v, want ErrNoSuchStream", err)
	}
}
