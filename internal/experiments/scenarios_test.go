package experiments_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/experiments"
)

var update = flag.Bool("update", false, "re-cut "+digestFile+" from this build's scenario output")

// digestFile holds one "<sha256>  <scenario>" line per row of
// experiments.Scenarios: the digest of the scenario's full output at
// its gate seed. The lines are written by a different process on a
// different commit than the one that checks them, so a match proves
// both that the run is reproducible across processes and that no byte
// of the output moved since the digest was cut. The only way to change
// a line is `go test ./internal/experiments -run TestScenarios -update`.
const digestFile = "testdata/scenarios.sha256"

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
	committed := readDigests(t)
	var cut bytes.Buffer
	for _, sc := range experiments.Scenarios {
		t.Run(sc.Name, func(t *testing.T) {
			run := func() []byte {
				var buf bytes.Buffer
				if err := sc.Run(sc.Seed, &buf); err != nil {
					t.Fatalf("seed %d: %v\n%s", sc.Seed, err, buf.String())
				}
				return buf.Bytes()
			}
			out := run()
			if d := firstDiff(out, run()); d != "" {
				t.Fatalf("two runs at seed %d diverge at %s", sc.Seed, d)
			}
			wants, ok := scenarioWants[sc.Name]
			if !ok {
				t.Errorf("no scenarioWants entry")
			}
			for _, want := range wants {
				if !bytes.Contains(out, []byte(want)) {
					t.Errorf("output missing %q", want)
				}
			}
			got := fmt.Sprintf("%x", sha256.Sum256(out))
			fmt.Fprintf(&cut, "%s  %s\n", got, sc.Name)
			if *update {
				return
			}
			if want := committed[sc.Name]; got != want {
				t.Errorf("output moved: sha256 %s, committed %q.\n"+
					"Diff `wsim -%s` against the commit that cut the digest to see what changed;\n"+
					"if the change is intended, re-cut with `go test ./internal/experiments -run TestScenarios -update`.",
					got, want, sc.Name)
			}
		})
	}
	if *update && !t.Failed() {
		if err := os.WriteFile(digestFile, cut.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// readDigests parses digestFile into scenario name -> hex digest.
func readDigests(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(digestFile)
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
