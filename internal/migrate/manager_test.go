package migrate_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// TestMigrateDestinationCrash kills the destination manager right after
// it answers an A→B migration and restarts it after an outage. A probe
// polls the bus every millisecond and crashes migrateB as soon as it
// has emitted the row's trigger event (only the destination emits
// "prepared" and "installed").
//
//   - prepared, 500 ms: the pending offer dies with the crash, which
//     resets the source's connection after it committed. The source
//     redials, the restarted peer answers COMMIT with GONE, and the
//     stream resumes on A.
//   - installed, 500 ms: the install is durable, so the stream ends on
//     B exactly once, whether DONE arrived before the crash or answers
//     a redialled COMMIT.
//   - prepared, 10 s: the peer is unreachable for the whole COMMIT
//     budget. The source cannot know whether B installed the stream,
//     so it parks the transfer as stuck and neither side holds the
//     bindings. This residual is what the protocol does not guarantee.
func TestMigrateDestinationCrash(t *testing.T) {
	for _, row := range []struct {
		trigger            string
		outage             time.Duration
		completed, resumed int64
		bindA, bindB       int
		installs, stuck    int
		intact             bool // the stuck row leaves delivery unchecked
	}{
		{"prepared", 500 * time.Millisecond, 0, 1, 2, 0, 0, 0, true},
		{"installed", 500 * time.Millisecond, 1, 0, 0, 2, 1, 0, true},
		{"prepared", 10 * time.Second, 0, 0, 0, 0, 0, 1, false},
	} {
		t.Run(fmt.Sprintf("%s-%v", row.trigger, row.outage), func(t *testing.T) {
			sys := core.NewSystem(core.Config{
				Seed:         5,
				Topology:     core.TopoDoubleMigrating,
				ObsRetention: 1 << 16,
				Wireless:     netsim.LinkConfig{Bandwidth: 2e6, Delay: 10 * time.Millisecond},
			})
			const srcPort, dstPort = 7000, 8000
			keyStr := fmt.Sprintf("11.11.10.99 %d 11.11.10.10 %d", srcPort, dstPort)
			k := filter.Key{SrcIP: core.WiredAddr, SrcPort: srcPort, DstIP: core.MobileAddr, DstPort: dstPort}
			for _, c := range []string{"load tcp", "load ttsf", "add tcp " + keyStr, "add ttsf " + keyStr} {
				sys.MustCommand(c)
			}
			var cmdOut string
			sys.Sched.After(300*time.Millisecond, func() {
				cmdOut = sys.Proxy.Exec("migrate " + keyStr + " 11.11.11.2")
			})
			var crashedAt sim.Time = -1
			var probe func()
			probe = func() {
				if sys.Obs.Count("migrate", row.trigger) == 0 {
					sys.Sched.After(time.Millisecond, probe)
					return
				}
				crashedAt = sys.Sched.Now()
				sys.Peer.Migrate.Crash()
				sys.Sched.After(row.outage, sys.Peer.Migrate.Restart)
			}
			sys.Sched.After(300*time.Millisecond, probe)

			payload := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog. "), 128_000/45+1)[:128_000]
			res, err := sys.Transfer(payload, srcPort, dstPort, 30*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(cmdOut, "migrating") {
				t.Fatalf("migrate command answered %q", cmdOut)
			}
			if crashedAt < 0 {
				t.Fatalf("migrateB never emitted %q", row.trigger)
			}
			a, c, r, ab := sys.Migrate.Counters()
			if a != 1 || c != row.completed || r != row.resumed || ab != 0 {
				t.Errorf("A outcome attempts=%d completed=%d resumed=%d aborted=%d, want 1/%d/%d/0",
					a, c, r, ab, row.completed, row.resumed)
			}
			bindA, bindB := sys.Proxy.StreamBindings(k), sys.Peer.Proxy.StreamBindings(k)
			if bindA != row.bindA || bindB != row.bindB {
				t.Errorf("bindings A=%d B=%d, want A=%d B=%d", bindA, bindB, row.bindA, row.bindB)
			}
			installs, stuck := sys.Obs.Count("migrate", "installed"), sys.Obs.Count("migrate", "stuck")
			if installs != row.installs || stuck != row.stuck {
				t.Errorf("%d installed and %d stuck events, want %d and %d", installs, stuck, row.installs, row.stuck)
			}
			if row.intact && !(res.Completed && bytes.Equal(res.Received, payload)) {
				t.Errorf("transfer not intact: completed=%v received=%d/%d", res.Completed, len(res.Received), res.Sent)
			}
			if t.Failed() {
				t.Logf("crashed migrateB at %v; migration events:\n%s", crashedAt, migrationLog(sys))
			}
		})
	}
}

func migrationLog(sys *core.System) string {
	var b strings.Builder
	for _, e := range sys.Obs.Events() {
		if e.Subsys == "migrate" {
			fmt.Fprintln(&b, e.String())
		}
	}
	return b.String()
}
