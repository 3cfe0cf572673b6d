package dataplane_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/filter"
	"repro/internal/filters"
	"repro/internal/ip"
	"repro/internal/proxy"
)

// TestControlSurfaceOnBothExecutors drives the typed control surface
// and the stream-migration operations through an inline and a ring
// plane at 1 and 4 shards: the four sentinels come back as errors.Is
// matches, a `tcp ttsf` stream extracted from one plane and restored
// on another moves its bindings (and a failed restore leaves the
// destination as it was), and the epoch after every step is the one
// the 1-shard inline plane shows.
func TestControlSurfaceOnBothExecutors(t *testing.T) {
	ring := func(shards int) func(*testing.T) *dataplane.Plane {
		return func(t *testing.T) *dataplane.Plane {
			cat := filter.NewCatalog()
			filters.RegisterAll(cat)
			pl := dataplane.NewConcurrent(dataplane.ConcurrentConfig{Shards: shards, Catalog: cat, Seed: 9})
			t.Cleanup(pl.Close)
			return pl
		}
	}
	inline := func(shards int) func(*testing.T) *dataplane.Plane {
		return func(t *testing.T) *dataplane.Plane { return standalonePlane(t, shards) }
	}
	var want []uint64 // epoch trace of inline-1, the first row
	for i, c := range []struct {
		name string
		mk   func(*testing.T) *dataplane.Plane
	}{
		{"inline-1", inline(1)}, {"inline-4", inline(4)},
		{"ring-1", ring(1)}, {"ring-4", ring(4)},
	} {
		// ttsf instances sit in a package-level table keyed by stream:
		// every row migrates a stream of its own.
		k := filter.Key{
			SrcIP: ip.MustParseAddr("11.11.10.99"), SrcPort: uint16(7000 + i),
			DstIP: ip.MustParseAddr("11.11.10.10"), DstPort: 5001,
		}
		t.Run(c.name, func(t *testing.T) {
			got := controlScript(t, c.mk(t), c.mk(t), k)
			if want == nil {
				want = got
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("epoch trace (source steps, then destination's)\n got %v\nwant %v", got, want)
			}
		})
	}
}

// controlScript runs the fixed operation sequence against a source and
// a destination plane and returns the epoch after every step.
func controlScript(t *testing.T, src, dst *dataplane.Plane, k filter.Key) (epochs []uint64) {
	t.Helper()
	step := func(pl *dataplane.Plane, what string, err, want error) {
		t.Helper()
		if want == nil && err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if want != nil && !errors.Is(err, want) {
			t.Fatalf("%s: err = %v, want errors.Is %v", what, err, want)
		}
		epochs = append(epochs, pl.Epoch())
	}
	bindings := func(pl *dataplane.Plane, what string, want int) {
		t.Helper()
		if got := pl.StreamBindings(k); got != want {
			t.Fatalf("%s: %d bindings, want %d", what, got, want)
		}
		epochs = append(epochs, pl.Epoch())
	}
	var wild filter.Key

	_, err := src.LoadFilter("no-such-lib")
	step(src, "load unknown", err, filter.ErrUnknownFilter)
	step(src, "unload before load", src.UnloadFilter("ttsf"), proxy.ErrNotLoaded)
	step(src, "add before load", src.AddFilter("ttsf", k, nil), proxy.ErrNotLoaded)
	for _, lib := range []string{"tcp", "ttsf"} {
		name, err := src.LoadFilter(lib)
		if name != lib {
			t.Fatalf("load %s returned name %q", lib, name)
		}
		step(src, "load "+lib, err, nil)
	}
	_, err = src.LoadFilter("ttsf")
	step(src, "load twice", err, proxy.ErrAlreadyLoaded)
	step(src, "delete unbound exact key", src.DeleteFilter("ttsf", k), proxy.ErrNoSuchStream)
	step(src, "add wild", src.AddFilter("tcp", wild, nil), nil)
	step(src, "delete wild", src.DeleteFilter("tcp", wild), nil)
	step(src, "delete wild twice", src.DeleteFilter("tcp", wild), proxy.ErrNoSuchStream)

	step(src, "add tcp", src.AddFilter("tcp", k, nil), nil)
	step(src, "add ttsf", src.AddFilter("ttsf", k, nil), nil)
	bindings(src, "source before extract", 2)
	bindings(dst, "destination before restore", 0)

	ex, err := src.ExtractStream(k)
	step(src, "extract", err, nil)
	bindings(src, "source after extract", 0)
	_, err = src.ExtractStream(k)
	step(src, "extract twice", err, proxy.ErrNoSuchStream)

	step(dst, "validate", dst.ValidateImport(ex), nil)
	// A restore that fails after its bindings went in: the ttsf state
	// is cut short, so RestoreState errors once tcp and ttsf are bound.
	if len(ex.States) == 0 {
		t.Fatal("extract carried no filter state")
	}
	bad := *ex
	bad.States = append([]proxy.FilterState(nil), ex.States...)
	bad.States[0].State = bad.States[0].State[:1]
	step(dst, "restore truncated state", dst.RestoreStream(&bad), filter.ErrStateTruncated)
	bindings(dst, "destination after failed restore", 0)
	step(dst, "validate unknown filter", dst.ValidateImport(&proxy.StreamExport{
		Key: k, Bindings: []proxy.BindingExport{{Filter: "nothere", Key: k}},
	}), filter.ErrUnknownFilter)

	step(dst, "restore", dst.RestoreStream(ex), nil)
	bindings(dst, "destination after restore", 2)
	return epochs
}
