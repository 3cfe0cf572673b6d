package proxy_test

import (
	"strings"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/filter"
	"repro/internal/filters"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/proxy"
	"repro/internal/sim"
)

func newControlPlane(t *testing.T) *dataplane.Plane {
	t.Helper()
	cat := filter.NewCatalog()
	filters.RegisterAll(cat)
	sched := sim.NewScheduler(1)
	pl := dataplane.NewInline(netsim.New(sched).AddNode("proxy"), cat, 1)
	pl.SetObs(obs.NewBus(sched, 64), obs.NewRegistry())
	return pl
}

// TestCommandMalformedLines drives the SP control parser with
// malformed load/add/delete/report/flows/events lines: every one must
// produce an "error:" diagnostic rather than being silently accepted
// with a half-parsed key, filter name or count.
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
		{"flows count trailing junk", "flows 5x"},
		{"flows count hex", "flows 0x10"},
		{"events count trailing junk", "events 2junk"},
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

// TestOneGrammarFourTargets runs one script through the command table
// on a detached proxy and on 1-shard inline, 4-shard inline and
// 4-shard concurrent planes: every line prints the same bytes on all
// four, so neither the shard count nor the executor shows through the
// control port. None has a bus or registry, so stats and events agree
// on their diagnostics.
func TestOneGrammarFourTargets(t *testing.T) {
	cat := filter.NewCatalog()
	filters.RegisterAll(cat)
	node := func() *netsim.Node { return netsim.New(sim.NewScheduler(1)).AddNode("proxy") }
	type target struct {
		name string
		run  func(string) string
		feed func([]byte)
	}
	bare := proxy.NewDetached(node(), cat)
	inline1 := dataplane.NewInline(node(), cat, 1)
	inline4 := dataplane.NewInline(node(), cat, 4)
	ring4 := dataplane.NewConcurrent(dataplane.ConcurrentConfig{Shards: 4, Catalog: cat, Seed: 1})
	defer ring4.Close()
	targets := []target{
		{"proxy", bare.Exec, func(raw []byte) { bare.Intercept(raw, nil) }},
		{"inline/1", inline1.Command, func(raw []byte) { inline1.Hook(raw, nil) }},
		{"inline/4", inline4.Command, func(raw []byte) { inline4.Hook(raw, nil) }},
		{"ring/4", ring4.Command, func(raw []byte) { ring4.Dispatch(raw); ring4.Drain() }},
	}
	const k = "11.11.10.99 7 11.11.10.10 5001"
	setup := []string{
		"help", "filters", "load rdrop", "load rdrop", "load nosuchfilter", "filters",
		"service pair rdrop:0 rdrop:0", "service bad nosuchfilter", "services",
		"add rdrop " + k + " 0", "add rdrop 0.0.0.0 0 11.11.10.10 5001 0",
		"add nosuchfilter " + k,
	}
	queries := []string{
		"report", "report rdrop", "report pair", "report nosuchfilter", "streams",
		"flows", "flows 2", "flows 0", "flows -1", "flows 5x", "flows 0x10", "flows 1 2",
		"stats", "events", "events 2junk",
		"delete rdrop " + k, "delete rdrop " + k, "delete rdrop " + k + " extra",
		"delete rdrop 11.11.10.99 7 11.11.10.10", "add rdrop 11.11.10.99 7x 11.11.10.10 5001",
		"report", "streams",
		"unservice pair", "unservice pair", "services",
		"remove rdrop", "remove rdrop", "remove", "filters",
		"frobnicate everything", "auth token", "policy list", "migrate " + k + " 1.2.3.4",
	}
	outs := make([][]string, len(targets))
	for i, tg := range targets {
		for _, line := range setup {
			outs[i] = append(outs[i], tg.run(line))
		}
		for port := uint16(7); port < 11; port++ {
			tg.feed(mkDgram(t, port, 1000, []byte("payload")))
		}
		for _, line := range queries {
			outs[i] = append(outs[i], tg.run(line))
		}
	}
	script := append(append([]string(nil), setup...), queries...)
	for j, line := range script {
		for i := 1; i < len(targets); i++ {
			if outs[i][j] != outs[0][j] {
				t.Errorf("%q:\n%s: %q\n%s: %q", line, targets[0].name, outs[0][j], targets[i].name, outs[i][j])
			}
		}
	}
	// The script exercises the rows, not just their diagnostics.
	if rep := outs[0][len(setup)]; !strings.Contains(rep, "\t11.11.10.99 10 -> 11.11.10.10 5001\n") {
		t.Errorf("report after traffic lacks a wild-card-built stream:\n%s", rep)
	}
	if fl := outs[0][len(setup)+5]; !strings.HasPrefix(fl, "flows: 4 active") {
		t.Errorf("flows after traffic on four ports:\n%s", fl)
	}
}
