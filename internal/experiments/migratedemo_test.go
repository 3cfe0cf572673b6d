package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// migrateOnce runs one clean A→B migration on a system with the given
// shard count and returns the migrate.* metric samples afterwards.
func migrateOnce(t *testing.T, shards int) []obs.Sample {
	t.Helper()
	sys := core.NewSystem(core.Config{
		Seed:     5,
		Topology: core.TopoDoubleMigrating,
		Shards:   shards,
		Wireless: netsim.LinkConfig{Bandwidth: 2e6, Delay: 10 * time.Millisecond},
	})
	const srcPort, dstPort = 7000, 8000
	keyStr := fmt.Sprintf("11.11.10.99 %d 11.11.10.10 %d", srcPort, dstPort)
	for _, c := range []string{
		"load tcp", "load ttsf",
		"add tcp " + keyStr, "add ttsf " + keyStr,
	} {
		sys.MustCommand(c)
	}
	var cmdOut string
	sys.Sched.After(300*time.Millisecond, func() {
		cmdOut = sys.Plane.Command("migrate " + keyStr + " 11.11.11.2")
	})
	res, err := sys.Transfer(repeatText(128_000), srcPort, dstPort, 30*time.Second)
	if err != nil || !res.Completed {
		t.Fatalf("shards=%d: transfer failed: err=%v completed=%v", shards, err, res.Completed)
	}
	if !strings.HasPrefix(cmdOut, "migrating") {
		t.Fatalf("shards=%d: migrate command answered %q", shards, cmdOut)
	}
	a, c, r, ab := sys.Migrate.Counters()
	if a != 1 || c != 1 || r != 0 || ab != 0 {
		t.Fatalf("shards=%d: outcome attempts=%d completed=%d resumed=%d aborted=%d, want one clean completion",
			shards, a, c, r, ab)
	}
	var out []obs.Sample
	for _, s := range sys.Metrics.Snapshot() {
		if strings.HasPrefix(s.Name, "migrate") {
			out = append(out, s)
		}
	}
	return out
}

// TestMigrateMetricsAcrossShards pins the migration counters to the
// unified metrics registry regardless of data-plane sharding: the same
// clean migration on a 1-shard and a 4-shard plane must publish
// identical migrate.* samples (one attempt, one completion, same
// snapshot byte count) — sharding changes where streams live, not what
// the migration plane reports.
func TestMigrateMetricsAcrossShards(t *testing.T) {
	one := migrateOnce(t, 1)
	four := migrateOnce(t, 4)
	if len(one) == 0 {
		t.Fatal("no migrate.* metrics registered")
	}
	if !reflect.DeepEqual(one, four) {
		t.Fatalf("migrate metrics diverge across shard counts:\n 1 shard: %+v\n 4 shards: %+v", one, four)
	}
	want := map[string]string{
		"migrate.attempts": "1", "migrate.completed": "1",
		"migrate.resumed": "0", "migrate.aborted": "0",
	}
	for _, s := range one {
		if v, ok := want[s.Name]; ok && s.Value != v {
			t.Fatalf("metric %s = %s, want %s", s.Name, s.Value, v)
		}
	}
}
