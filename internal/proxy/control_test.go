package proxy_test

import (
	"strings"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/filter"
	"repro/internal/filters"
	"repro/internal/netsim"
	"repro/internal/sim"
)

func newControlPlane(t *testing.T) *dataplane.Plane {
	t.Helper()
	cat := filter.NewCatalog()
	filters.RegisterAll(cat)
	node := netsim.New(sim.NewScheduler(1)).AddNode("proxy")
	return dataplane.NewInline(node, cat, 1)
}

// TestCommandMalformedLines drives the SP control parser with
// malformed load/add/delete/report lines: every one must produce an
// "error:" diagnostic rather than being silently accepted with a
// half-parsed key or filter name.
func TestCommandMalformedLines(t *testing.T) {
	goodKey := "11.11.10.99 7 11.11.10.10 5001"
	cases := []struct {
		name string
		line string
	}{
		{"load no arg", "load"},
		{"load extra args", "load rdrop tcp"},
		{"load unknown lib", "load nosuchfilter"},
		{"remove no arg", "remove"},
		{"remove not loaded", "remove rdrop"},
		{"add no key", "add rdrop"},
		{"add short key", "add rdrop 11.11.10.99 7 11.11.10.10"},
		{"add unloaded filter", "add nosuchfilter " + goodKey},
		{"add port trailing junk", "add rdrop 11.11.10.99 7x 11.11.10.10 5001 50"},
		{"add port out of range", "add rdrop 11.11.10.99 70000 11.11.10.10 5001 50"},
		{"add negative port", "add rdrop 11.11.10.99 -1 11.11.10.10 5001 50"},
		{"add addr trailing junk", "add rdrop 11.11.10.99x 7 11.11.10.10 5001 50"},
		{"add addr too few octets", "add rdrop 11.11.10 7 11.11.10.10 5001 50"},
		{"add addr too many octets", "add rdrop 11.11.10.99.1 7 11.11.10.10 5001 50"},
		{"add addr octet out of range", "add rdrop 11.11.10.999 7 11.11.10.10 5001 50"},
		{"add addr signed octet", "add rdrop 11.11.10.+9 7 11.11.10.10 5001 50"},
		{"delete arity short", "delete rdrop 11.11.10.99 7 11.11.10.10"},
		{"delete arity long", "delete rdrop " + goodKey + " extra"},
		{"delete bad port", "delete rdrop 11.11.10.99 7 11.11.10.10 50x1"},
		{"delete not loaded", "delete rdrop " + goodKey},
		{"report unknown filter", "report nosuchfilter"},
		{"unknown command", "frobnicate everything"},
	}
	p := newControlPlane(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := p.Command(tc.line)
			if !strings.HasPrefix(out, "error:") {
				t.Fatalf("Command(%q) = %q, want an error: diagnostic", tc.line, out)
			}
		})
	}
	// None of the rejected lines may have left state behind.
	if got := p.Shard(0).LoadedFilters(); len(got) != 0 {
		t.Fatalf("rejected commands loaded filters: %v", got)
	}
	if got := p.Streams(); len(got) != 0 {
		t.Fatalf("rejected commands created streams: %v", got)
	}
}

// TestCommandWellFormedLines pins the happy path the experiments rely
// on, so the strictness added for malformed input cannot regress it.
func TestCommandWellFormedLines(t *testing.T) {
	p := newControlPlane(t)
	goodKey := "11.11.10.99 7 11.11.10.10 5001"
	steps := []struct {
		line string
		want string // exact output, or "" for fail-silent success
	}{
		{"load rdrop", "rdrop\n"},
		{"add rdrop " + goodKey + " 50", ""},
		{"add rdrop 0.0.0.0 0 11.11.10.10 0 25", ""}, // wild-cards stay accepted
		{"delete rdrop " + goodKey, ""},
		{"remove rdrop", ""},
	}
	for _, s := range steps {
		if out := p.Command(s.line); out != s.want {
			t.Fatalf("Command(%q) = %q, want %q", s.line, out, s.want)
		}
	}
}
