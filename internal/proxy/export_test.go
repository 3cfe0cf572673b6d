package proxy_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/filter"
	"repro/internal/filters"
	"repro/internal/ip"
	"repro/internal/netsim"
	"repro/internal/proxy"
	"repro/internal/sim"
)

// snapInst is a test filter instance whose whole state is one byte
// string.
type snapInst struct{ data []byte }

func (s *snapInst) SnapshotState() ([]byte, error) { return append([]byte(nil), s.data...), nil }
func (s *snapInst) RestoreState(b []byte) error {
	s.data = append([]byte(nil), b...)
	return nil
}

// exportCatalog registers "snap" (snapshottable, state seeded from its
// arg) and "plain" (no snapshotter — must migrate fresh). Instances
// are recorded in the maps so the test can inspect both proxies.
func exportCatalog(snaps, plains map[string][]*snapInst, tag *string) *filter.Catalog {
	cat := filter.NewCatalog()
	cat.Register("snap", func() filter.Factory {
		return &fakeFilter{name: "snap", priority: filter.Normal,
			onNew: func(env filter.Env, k filter.Key, args []string) error {
				inst := &snapInst{data: []byte("fresh")}
				if len(args) > 0 {
					inst.data = []byte(args[0])
				}
				snaps[*tag] = append(snaps[*tag], inst)
				_, err := env.Attach(k, filter.Hooks{Filter: "snap", Priority: filter.Normal, State: inst})
				return err
			}}
	})
	cat.Register("plain", func() filter.Factory {
		return &fakeFilter{name: "plain", priority: filter.Low,
			onNew: func(env filter.Env, k filter.Key, args []string) error {
				inst := &snapInst{data: []byte("fresh")}
				plains[*tag] = append(plains[*tag], inst)
				_, err := env.Attach(k, filter.Hooks{Filter: "plain", Priority: filter.Low})
				return err
			}}
	})
	return cat
}

func TestExportImportRoundTrip(t *testing.T) {
	snaps := map[string][]*snapInst{}
	plains := map[string][]*snapInst{}
	tag := "A"
	cat := exportCatalog(snaps, plains, &tag)
	rigA := newRig(t, cat)
	rigB := newRig(t, cat)
	k, err := filter.ParseKey([]string{"10.1.0.1", "80", "10.2.0.1", "2000"})
	if err != nil {
		t.Fatal(err)
	}

	a := rigA.prox
	if _, err := a.LoadFilter("snap"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.LoadFilter("plain"); err != nil {
		t.Fatal(err)
	}
	if err := a.AddFilter("snap", k, []string{"seeded"}); err != nil {
		t.Fatal(err)
	}
	if err := a.AddFilter("plain", k, nil); err != nil {
		t.Fatal(err)
	}
	if err := a.AddFilter("snap", k.Reverse(), []string{"reverse-side"}); err != nil {
		t.Fatal(err)
	}
	// Mutate the live state past its seed, as traffic would.
	snaps["A"][0].data = append(snaps["A"][0].data, []byte("+edits")...)

	ex, err := a.ExportStream(k)
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	if len(ex.Bindings) != 3 {
		t.Fatalf("exported %d bindings, want 3", len(ex.Bindings))
	}
	if len(ex.States) != 2 {
		t.Fatalf("exported %d states, want 2 (plain has none)", len(ex.States))
	}

	if _, err := a.ExtractStream(k); err != nil {
		t.Fatalf("extract: %v", err)
	}
	if a.StreamBindings(k) != 0 {
		t.Fatal("source still owns the stream after extract")
	}
	if _, err := a.ExportStream(k); !errors.Is(err, proxy.ErrNoSuchStream) {
		t.Fatalf("source still holds a queue for the stream after extract: %v", err)
	}

	// Import on B: filters auto-load from the catalog.
	tag = "B"
	b := rigB.prox
	if err := b.ImportStream(ex); err != nil {
		t.Fatalf("import: %v", err)
	}
	if got := b.StreamBindings(k); got != 3 {
		t.Fatalf("destination has %d bindings, want 3", got)
	}
	if _, err := b.ExportStream(k); err != nil {
		t.Fatalf("destination holds no queue for the stream: %v", err)
	}
	if len(snaps["B"]) != 2 {
		t.Fatalf("destination instantiated %d snap instances, want 2", len(snaps["B"]))
	}
	if want := []byte("seeded+edits"); !bytes.Equal(snaps["B"][0].data, want) {
		t.Fatalf("restored state %q, want %q", snaps["B"][0].data, want)
	}
	if want := []byte("reverse-side"); !bytes.Equal(snaps["B"][1].data, want) {
		t.Fatalf("restored reverse state %q, want %q", snaps["B"][1].data, want)
	}
	// The non-snapshotter filter migrated fresh.
	if want := []byte("fresh"); !bytes.Equal(plains["B"][0].data, want) {
		t.Fatalf("plain instance state %q, want fresh", plains["B"][0].data)
	}
}

func TestExportErrors(t *testing.T) {
	snaps := map[string][]*snapInst{}
	plains := map[string][]*snapInst{}
	tag := "A"
	rig := newRig(t, exportCatalog(snaps, plains, &tag))
	k, _ := filter.ParseKey([]string{"10.1.0.1", "80", "10.2.0.1", "2000"})
	if _, err := rig.prox.ExportStream(k); !errors.Is(err, proxy.ErrNoSuchStream) {
		t.Fatalf("export of absent stream: %v", err)
	}
	if _, err := rig.prox.ExportStream(filter.Key{}); err == nil {
		t.Fatal("wild-card export accepted")
	}
	bogus := &proxy.StreamExport{
		Key:      k,
		Bindings: []proxy.BindingExport{{Filter: "nothere", Key: k}},
	}
	if err := rig.prox.ValidateImport(bogus); err == nil {
		t.Fatal("import with unknown filter validated")
	}
	if err := rig.prox.ImportStream(bogus); err == nil {
		t.Fatal("import with unknown filter accepted")
	}
	if rig.prox.StreamBindings(k) != 0 {
		t.Fatal("failed import left bindings behind")
	}
}

func TestImportQueueCounters(t *testing.T) {
	snaps := map[string][]*snapInst{}
	plains := map[string][]*snapInst{}
	tag := "A"
	cat := exportCatalog(snaps, plains, &tag)
	rigA := newRig(t, cat)
	rigB := newRig(t, cat)
	k, _ := filter.ParseKey([]string{"10.1.0.1", "80", "10.2.0.1", "2000"})
	a := rigA.prox
	if _, err := a.LoadFilter("snap"); err != nil {
		t.Fatal(err)
	}
	if err := a.AddFilter("snap", k, nil); err != nil {
		t.Fatal(err)
	}
	ex, err := a.ExtractStream(k)
	if err != nil {
		t.Fatal(err)
	}
	ex.Pkts, ex.Bytes = 42, 99999
	tag = "B"
	if err := rigB.prox.ImportStream(ex); err != nil {
		t.Fatal(err)
	}
	ex2, err := rigB.prox.ExportStream(k)
	if err != nil {
		t.Fatal(err)
	}
	if ex2.Pkts != 42 || ex2.Bytes != 99999 {
		t.Fatalf("queue counters not restored: %+v", ex2)
	}
}

// TestImportStreamCleansUpFailure moves a `tcp ttsf` stream between two
// proxies through the operations the migration manager runs: extract
// (a second extract finds no stream), validate, and import. An import
// whose ttsf state is cut short fails after its bindings went in and
// must leave none behind; a binding on an unknown filter fails
// validation; the intact export then imports with both bindings.
func TestImportStreamCleansUpFailure(t *testing.T) {
	newProxy := func() *proxy.Proxy {
		cat := filter.NewCatalog()
		filters.RegisterAll(cat)
		return proxy.NewDetached(netsim.New(sim.NewScheduler(9)).AddNode("proxy"), cat)
	}
	src, dst := newProxy(), newProxy()
	k := filter.Key{
		SrcIP: ip.MustParseAddr("11.11.10.99"), SrcPort: 7000,
		DstIP: ip.MustParseAddr("11.11.10.10"), DstPort: 5001,
	}
	for _, lib := range []string{"tcp", "ttsf"} {
		if _, err := src.LoadFilter(lib); err != nil {
			t.Fatal(err)
		}
		if err := src.AddFilter(lib, k, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := src.StreamBindings(k); got != 2 {
		t.Fatalf("source has %d bindings before extract, want 2", got)
	}

	ex, err := src.ExtractStream(k)
	if err != nil {
		t.Fatalf("extract: %v", err)
	}
	if got := src.StreamBindings(k); got != 0 {
		t.Fatalf("source has %d bindings after extract, want 0", got)
	}
	if _, err := src.ExtractStream(k); !errors.Is(err, proxy.ErrNoSuchStream) {
		t.Fatalf("second extract: err = %v, want %v", err, proxy.ErrNoSuchStream)
	}

	if err := dst.ValidateImport(ex); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if len(ex.States) == 0 {
		t.Fatal("extract carried no filter state")
	}
	bad := *ex
	bad.States = append([]proxy.FilterState(nil), ex.States...)
	bad.States[0].State = bad.States[0].State[:1]
	if err := dst.ImportStream(&bad); !errors.Is(err, filter.ErrStateTruncated) {
		t.Fatalf("import of truncated state: err = %v, want %v", err, filter.ErrStateTruncated)
	}
	if got := dst.StreamBindings(k); got != 0 {
		t.Fatalf("destination has %d bindings after a failed import, want 0", got)
	}
	if err := dst.ValidateImport(&proxy.StreamExport{
		Key: k, Bindings: []proxy.BindingExport{{Filter: "nothere", Key: k}},
	}); !errors.Is(err, filter.ErrUnknownFilter) {
		t.Fatalf("validate unknown filter: err = %v, want %v", err, filter.ErrUnknownFilter)
	}

	if err := dst.ImportStream(ex); err != nil {
		t.Fatalf("import: %v", err)
	}
	if got := dst.StreamBindings(k); got != 2 {
		t.Fatalf("destination has %d bindings after import, want 2", got)
	}
}
