package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
)

// TestMigrateMetricsAcrossShards pins the migration counters to the
// unified metrics registry: one clean A→B migration publishes one
// attempt, one completion, no resume and no abort under migrate.*.
func TestMigrateMetricsAcrossShards(t *testing.T) {
	sys := core.NewSystem(core.Config{
		Seed:     5,
		Topology: core.TopoDoubleMigrating,
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
		cmdOut = sys.Proxy.Exec("migrate " + keyStr + " 11.11.11.2")
	})
	res, err := sys.Transfer(repeatText(128_000), srcPort, dstPort, 30*time.Second)
	if err != nil || !res.Completed {
		t.Fatalf("transfer failed: err=%v completed=%v", err, res.Completed)
	}
	if !strings.HasPrefix(cmdOut, "migrating") {
		t.Fatalf("migrate command answered %q", cmdOut)
	}
	want := map[string]string{
		"migrate.attempts": "1", "migrate.completed": "1",
		"migrate.resumed": "0", "migrate.aborted": "0",
	}
	for _, s := range sys.Metrics.Snapshot() {
		if v, ok := want[s.Name]; ok {
			if s.Value != v {
				t.Fatalf("metric %s = %s, want %s", s.Name, s.Value, v)
			}
			delete(want, s.Name)
		}
	}
	if len(want) != 0 {
		t.Fatalf("metrics not registered: %v", want)
	}
}
