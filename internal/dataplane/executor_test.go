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
// through a ring plane at 1 and 4 shards: the four sentinels come back
// as errors.Is matches, and the epoch after every step is the one the
// 1-shard plane shows, so routing a mutation to one shard or to all
// counts it once either way.
func TestControlSurfaceOnBothExecutors(t *testing.T) {
	var want []uint64 // epoch trace of ring-1, the first row
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("ring-%d", shards), func(t *testing.T) {
			cat := filter.NewCatalog()
			filters.RegisterAll(cat)
			pl := dataplane.NewConcurrent(dataplane.ConcurrentConfig{Shards: shards, Catalog: cat, Seed: 9})
			t.Cleanup(pl.Close)
			got := controlScript(t, pl)
			if want == nil {
				want = got
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("epoch trace\n got %v\nwant %v", got, want)
			}
		})
	}
}

// controlScript runs the fixed operation sequence against pl and
// returns the epoch after every step.
func controlScript(t *testing.T, pl *dataplane.Plane) (epochs []uint64) {
	t.Helper()
	k := filter.Key{
		SrcIP: ip.MustParseAddr("11.11.10.99"), SrcPort: 7000,
		DstIP: ip.MustParseAddr("11.11.10.10"), DstPort: 5001,
	}
	step := func(what string, err, want error) {
		t.Helper()
		if want == nil && err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if want != nil && !errors.Is(err, want) {
			t.Fatalf("%s: err = %v, want errors.Is %v", what, err, want)
		}
		epochs = append(epochs, pl.Epoch())
	}
	var wild filter.Key

	_, err := pl.LoadFilter("no-such-lib")
	step("load unknown", err, filter.ErrUnknownFilter)
	step("unload before load", pl.UnloadFilter("ttsf"), proxy.ErrNotLoaded)
	step("add before load", pl.AddFilter("ttsf", k, nil), proxy.ErrNotLoaded)
	for _, lib := range []string{"tcp", "ttsf"} {
		name, err := pl.LoadFilter(lib)
		if name != lib {
			t.Fatalf("load %s returned name %q", lib, name)
		}
		step("load "+lib, err, nil)
	}
	_, err = pl.LoadFilter("ttsf")
	step("load twice", err, proxy.ErrAlreadyLoaded)
	step("delete unbound exact key", pl.DeleteFilter("ttsf", k), proxy.ErrNoSuchStream)
	step("add wild", pl.AddFilter("tcp", wild, nil), nil)
	step("delete wild", pl.DeleteFilter("tcp", wild), nil)
	step("delete wild twice", pl.DeleteFilter("tcp", wild), proxy.ErrNoSuchStream)
	step("add tcp", pl.AddFilter("tcp", k, nil), nil)
	step("add ttsf", pl.AddFilter("ttsf", k, nil), nil)
	return epochs
}
