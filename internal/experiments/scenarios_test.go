package experiments_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/experiments"
)

var update = flag.Bool("update", false, "re-cut the digest file of the gate tests run (-run selects them) from this build's output")

// The digest files hold one "<sha256>  <name>" line per gated row: the
// digest of the row's full output. The lines are written by a different
// process on a different commit than the one that checks them, so a
// match proves both that the run is reproducible across processes and
// that no byte of the output moved since the digest was cut. The only
// way to change a line is `go test ./internal/experiments -run <the
// gate test> -update`.
const (
	scenarioDigests   = "testdata/scenarios.sha256"   // rows of experiments.Scenarios at their gate seeds
	experimentDigests = "testdata/experiments.sha256" // E1–E22 but E15
)

// scenarioWants lists, per scenario, what its output must show — the
// reactions the scenario exists to provoke, readable without a digest.
var scenarioWants = map[string][]string{
	"events": nil,
	"chaos": {
		// the whole fault matrix and the reactions Chaos asserts on
		"link-down", "link-up", "partition-ab", "heal-ab",
		"link-degrade", "link-restore", "eem-crash", "eem-restart",
		"filter-quarantine", "reconnected",
	},
	"adapt": {
		// one full fire and revert per engine
		"policy\tfire\tcompress", "policy\tfire\texpand",
		"policy\trevert\tcompress", "policy\trevert\texpand",
	},
	"flows": {
		"policy\tfire\tshed", "policy\trevert\tshed",
		"flow.retrans_ratio", "=== flows (after lossy leg) ===",
	},
	"migrate": {
		"leg clean", "leg corrupt-offer", "leg crash-post-commit", "leg round-trip",
		"outcomes account for every attempt",
		"migrate.attempts", "migrate.completed", "migrate.resumed", "migrate.aborted", "migrate.bytes",
	},
	"mmwave": {
		"blockage trace \"mmwave-urban\"",
		"leg baseline", "leg mwin", "leg mwin+shed",
		"shed timeline", "RESULT mmwave",
	},
}

// TestScenarios is the one determinism gate of the scripted scenarios.
// Every row runs twice in-process at its gate seed: the two outputs
// must be byte-identical (a wall-clock or map-order leak fails here,
// with the first diverging line), must contain the row's wants, and
// must hash to the committed digest.
func TestScenarios(t *testing.T) {
	var rows []gateRow
	for _, sc := range experiments.Scenarios {
		sc := sc
		wants, ok := scenarioWants[sc.Name]
		if !ok {
			t.Errorf("%s: no scenarioWants entry", sc.Name)
		}
		rows = append(rows, gateRow{sc.Name, wants, func(w io.Writer) error {
			if err := sc.Run(sc.Seed, w); err != nil {
				return fmt.Errorf("seed %d: %w", sc.Seed, err)
			}
			return nil
		}})
	}
	digestGate(t, scenarioDigests, rows)
}

// gateRow is one output the digest gate pins: what produces it and
// what it must contain whatever its digest.
type gateRow struct {
	name  string
	wants []string
	run   func(io.Writer) error
}

// digestGate runs every row twice as a subtest: the two outputs must
// be byte-identical, contain the row's wants, and hash to the row's
// line in file. Under -update it rewrites file from this run instead
// of comparing.
func digestGate(t *testing.T, file string, rows []gateRow) {
	committed := readDigests(t, file)
	var cut bytes.Buffer
	for _, row := range rows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			run := func() []byte {
				var buf bytes.Buffer
				if err := row.run(&buf); err != nil {
					t.Fatalf("%v\n%s", err, buf.String())
				}
				return buf.Bytes()
			}
			out := run()
			if d := firstDiff(out, run()); d != "" {
				t.Fatalf("two runs diverge at %s", d)
			}
			for _, want := range row.wants {
				if !bytes.Contains(out, []byte(want)) {
					t.Errorf("output missing %q", want)
				}
			}
			got := fmt.Sprintf("%x", sha256.Sum256(out))
			fmt.Fprintf(&cut, "%s  %s\n", got, row.name)
			if *update {
				return
			}
			if want := committed[row.name]; got != want {
				gate := strings.SplitN(t.Name(), "/", 2)[0]
				t.Errorf("output moved: sha256 %s, committed %q in %s.\n"+
					"Diff the output against the commit that cut the digest to see what changed;\n"+
					"if the change is intended, re-cut with `go test ./internal/experiments -run %s -update`.",
					got, want, file, gate)
			}
		})
	}
	if *update && !t.Failed() {
		if err := os.WriteFile(file, cut.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// readDigests parses a digest file into row name -> hex digest.
func readDigests(t *testing.T, file string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(file)
	if err != nil && !*update {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if f := strings.Fields(line); len(f) == 2 {
			out[f[1]] = f[0]
		}
	}
	return out
}

// firstDiff names the first line at which a and b diverge, or returns
// "" when they are equal.
func firstDiff(a, b []byte) string {
	if bytes.Equal(a, b) {
		return ""
	}
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(la) && i < len(lb); i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return fmt.Sprintf("line %d:\n run1: %s\n run2: %s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("end of output: %d vs %d bytes", len(a), len(b))
}
