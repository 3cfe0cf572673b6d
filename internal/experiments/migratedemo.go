package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/filter"
	"repro/internal/filters"
	"repro/internal/migrate"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// MigrateDemo is the live stream-migration scenario behind
// `wsim -exp migrate`: proxy-to-proxy handoff of serviced streams under a
// matrix of injected faults.
//
// A double-proxy deployment runs migration managers on both SPs. Each
// leg starts a bulk transfer serviced on the A proxy by tcp + ttsf +
// a wsize window cap, then — mid-transfer — issues the `migrate`
// command to freeze the stream at a batch boundary and hand it, filter
// state included, to the B proxy. The legs walk the fault matrix:
//
//	clean            no fault; completes on B
//	corrupt-offer    snapshot bit-flipped in flight; B's checksum NAKs
//	                 it and the stream resumes (counted aborted) on A
//	drop-offer       first OFFER suppressed; the retry completes on B
//	partition        wireless blackholed around the attempt; the OFFER
//	                 budget runs dry and the stream resumes on A
//	crash-pre-commit source manager crashes before its journal commits;
//	                 restart resumes the stream on A
//	crash-post-commit source crashes after committing but before
//	                 COMMIT is sent; restart re-drives it to completion
//	round-trip       A→B migration followed by B→A of the same stream
//
// Every leg asserts the ownership invariant (exactly one proxy holds
// the stream's bindings afterwards — completed XOR resumed, never both,
// never neither), checksum-clean payload delivery through the fault,
// and — when the stream lands on a proxy — TTSF byte-count continuity
// proving the filter state really moved instead of restarting fresh.
// Everything runs on virtual time; the output is byte-identical across
// runs with the same seed.
func MigrateDemo(seed int64, w io.Writer) error {
	sys := core.NewSystem(core.Config{
		Seed:         seed,
		Topology:     core.TopoDoubleMigrating,
		ObsRetention: 1 << 16,
		Wireless:     netsim.LinkConfig{Bandwidth: 2e6, Delay: 10 * time.Millisecond},
	})
	fmt.Fprintf(w, "=== live stream migration (seed %d) ===\n", seed)
	inj := faults.NewInjector(sys.Sched, sys.Obs)
	payload := repeatText(256_000)

	for _, c := range []string{"load tcp", "load ttsf", "load wsize"} {
		sys.MustCommand(c) // A only: B auto-loads from its catalog on import
	}

	// outcome deltas of one leg on one manager
	type delta struct{ attempts, completed, resumed, aborted int64 }
	counters := func(m *migrate.Manager) delta {
		a, c, r, ab := m.Counters()
		return delta{a, c, r, ab}
	}
	sub := func(x, y delta) delta {
		return delta{x.attempts - y.attempts, x.completed - y.completed,
			x.resumed - y.resumed, x.aborted - y.aborted}
	}

	type leg struct {
		name    string
		port    uint16 // src port; dst is port+1000
		arm     func(migrateAt time.Duration)
		back    bool  // also migrate B→A afterwards (round-trip)
		want    delta // expected A-manager outcome
		ownerB  bool  // stream must end on B (else back on A)
		install int   // expected "installed" events on the bus for this key
	}
	legs := []leg{
		{name: "clean", port: 7000, want: delta{1, 1, 0, 0}, ownerB: true, install: 1},
		{name: "corrupt-offer", port: 7100,
			arm: func(at time.Duration) {
				inj.ArmMigrationFault("A", sys.Migrate, at-50*time.Millisecond, "corrupt-offer")
			},
			want: delta{1, 0, 0, 1}, install: 0},
		{name: "drop-offer", port: 7200,
			arm:  func(at time.Duration) { inj.ArmMigrationFault("A", sys.Migrate, at-50*time.Millisecond, "drop-offer") },
			want: delta{1, 1, 0, 0}, ownerB: true, install: 1},
		{name: "partition", port: 7300,
			arm: func(at time.Duration) {
				inj.PartitionAB("wireless", sys.Wireless, at-50*time.Millisecond, 2*time.Second)
			},
			want: delta{1, 0, 1, 0}, install: 0},
		{name: "crash-pre-commit", port: 7400,
			arm: func(at time.Duration) {
				inj.ArmMigrationFault("A", sys.Migrate, at-50*time.Millisecond, "crash-pre-commit")
				inj.RestartMigration("A", sys.Migrate, at+500*time.Millisecond)
			},
			want: delta{1, 0, 1, 0}, install: 0},
		{name: "crash-post-commit", port: 7500,
			arm: func(at time.Duration) {
				inj.ArmMigrationFault("A", sys.Migrate, at-50*time.Millisecond, "crash-post-commit")
				inj.RestartMigration("A", sys.Migrate, at+500*time.Millisecond)
			},
			want: delta{1, 1, 0, 0}, ownerB: true, install: 1},
		{name: "round-trip", port: 7600, back: true,
			want: delta{1, 1, 0, 0}, ownerB: false, install: 2},
	}

	for _, lg := range legs {
		srcPort, dstPort := lg.port, lg.port+1000
		keyStr := fmt.Sprintf("11.11.10.99 %d 11.11.10.10 %d", srcPort, dstPort)
		k := filter.Key{SrcIP: core.WiredAddr, SrcPort: srcPort, DstIP: core.MobileAddr, DstPort: dstPort}
		sys.MustCommand("add tcp " + keyStr)
		sys.MustCommand("add ttsf " + keyStr)
		sys.MustCommand("add wsize " + keyStr + " cap 16000")

		const migrateAt = 300 * time.Millisecond
		if lg.arm != nil {
			lg.arm(migrateAt)
		}
		beforeA, beforeB := counters(sys.Migrate), counters(sys.Peer.Migrate)
		nEvents := len(sys.Obs.Events())
		var preBytes int64
		var cmdOut string
		sys.Sched.After(migrateAt, func() {
			if st, ok := filters.TTSFStatsFor(k); ok {
				preBytes = st.BytesIn
			}
			cmdOut = sys.Proxy.Exec("migrate " + keyStr + " 11.11.11.2")
		})
		// Transfer runs the scheduler for its whole deadline, well past the
		// tcp filter's close-grace teardown, so the surviving TTSF instance
		// is sampled in-sim: a probe tracks the last stats seen for the key
		// until the owning queue is torn down.
		var post filters.TTSFStats
		var postOK, stopProbe bool
		var probe func()
		probe = func() {
			if stopProbe {
				return
			}
			if st, ok := filters.TTSFStatsFor(k); ok {
				post, postOK = st, true
			}
			sys.Sched.After(50*time.Millisecond, probe)
		}
		sys.Sched.After(migrateAt, probe)
		if lg.back {
			// Re-arm until the stream has actually landed on B (the A→B
			// protocol is still in flight at +300ms), then send it home.
			var back func()
			back = func() {
				if out := sys.Peer.Proxy.Exec("migrate " + keyStr + " 11.11.11.1"); strings.HasPrefix(out, "error") {
					sys.Sched.After(100*time.Millisecond, back)
				}
			}
			sys.Sched.After(migrateAt+300*time.Millisecond, back)
		}

		if _, err := sys.CheckedTransfer("migrate: leg "+lg.name, payload, srcPort, dstPort, 60*time.Second); err != nil {
			return err
		}
		stopProbe = true
		sys.Sched.RunFor(8 * time.Second) // protocol wrap-up + queue teardown grace

		if !strings.HasPrefix(cmdOut, "migrating") {
			return fmt.Errorf("migrate: leg %s: command answered %q", lg.name, cmdOut)
		}
		dA := sub(counters(sys.Migrate), beforeA)
		if dA != lg.want {
			return fmt.Errorf("migrate: leg %s: A outcome %+v, want %+v", lg.name, dA, lg.want)
		}
		// The ownership invariant: exactly one proxy holds the stream's
		// exact-key bindings, and it is the one the outcome names.
		bindA, bindB := sys.Proxy.StreamBindings(k), sys.Peer.Proxy.StreamBindings(k)
		wantA, wantB := 3, 0
		if lg.ownerB {
			wantA, wantB = 0, 3
		}
		if lg.back {
			dB := sub(counters(sys.Peer.Migrate), beforeB)
			if dB != (delta{1, 1, 0, 0}) {
				return fmt.Errorf("migrate: leg %s: B outcome %+v, want one completion", lg.name, dB)
			}
		}
		if bindA != wantA || bindB != wantB {
			return fmt.Errorf("migrate: leg %s: bindings A=%d B=%d, want A=%d B=%d (dual or lost ownership)",
				lg.name, bindA, bindB, wantA, wantB)
		}
		// Filter-state continuity: the TTSF instance that ends up owning
		// the stream must carry the byte counts from before the freeze.
		if preBytes == 0 {
			return fmt.Errorf("migrate: leg %s: ttsf saw no bytes before the freeze", lg.name)
		}
		if !postOK || post.BytesIn < preBytes {
			return fmt.Errorf("migrate: leg %s: ttsf continuity broken: pre=%d post=%d ok=%v",
				lg.name, preBytes, post.BytesIn, postOK)
		}
		installed := 0
		for _, e := range sys.Obs.Events()[nEvents:] {
			if e.Subsys == "migrate" && e.Kind == "installed" && e.HasStream && e.Stream == obs.Stream(k) {
				installed++
			}
		}
		if installed != lg.install {
			return fmt.Errorf("migrate: leg %s: %d installs on the bus, want %d",
				lg.name, installed, lg.install)
		}
		fmt.Fprintf(w, "leg %-17s outcome=%s owner=%s bindings=A:%d/B:%d ttsf_bytes=%d->%d installs=%d intact=true\n",
			lg.name, outcomeName(dA), ownerName(lg.ownerB), bindA, bindB, preBytes, post.BytesIn, installed)
	}

	// Command-surface error paths: unknown streams and wild cards are
	// rejected before anything freezes.
	if out := sys.Proxy.Exec("migrate 11.11.10.99 1 11.11.10.10 2 11.11.11.2"); !strings.HasPrefix(out, "error") {
		return fmt.Errorf("migrate: bogus key accepted: %q", out)
	}
	if out := sys.Proxy.Exec("migrate 11.11.10.99 0 11.11.10.10 0 11.11.11.2"); !strings.HasPrefix(out, "error") {
		return fmt.Errorf("migrate: wild-card key accepted: %q", out)
	}
	a, c, r, ab := sys.Migrate.Counters()
	if a != c+r+ab {
		return fmt.Errorf("migrate: attempts=%d but outcomes sum to %d — an attempt neither completed nor resumed",
			a, c+r+ab)
	}
	fmt.Fprintf(w, "A manager: attempts=%d completed=%d resumed=%d aborted=%d (outcomes account for every attempt)\n",
		a, c, r, ab)

	eventsTrailer(w, sys, "migration events", func(e obs.Event) bool {
		return e.Subsys == "migrate" || strings.HasPrefix(e.Kind, "migrate-")
	}, "stream migration metrics")
	return nil
}

func outcomeName(d struct{ attempts, completed, resumed, aborted int64 }) string {
	switch {
	case d.completed > 0:
		return "completed"
	case d.resumed > 0:
		return "resumed"
	case d.aborted > 0:
		return "aborted"
	}
	return "none"
}

func ownerName(onB bool) string {
	if onB {
		return "B"
	}
	return "A"
}
