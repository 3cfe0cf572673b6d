package experiments_test

import (
	"io"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestRegistryComplete(t *testing.T) {
	all := experiments.All()
	if len(all) != 22 {
		t.Fatalf("registered %d experiments, want 22 (E1–E22)", len(all))
	}
	// Numeric-aware ordering.
	if all[0].ID != "E1" || all[9].ID != "E10" || all[21].ID != "E22" {
		var ids []string
		for _, e := range all {
			ids = append(ids, e.ID)
		}
		t.Fatalf("ordering: %v", ids)
	}
	for _, e := range all {
		if e.Paper == "" || e.Description == "" || e.Run == nil {
			t.Errorf("%s incomplete: %+v", e.ID, e)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	var sb strings.Builder
	if err := experiments.Run("E99", &sb); err == nil {
		t.Fatal("unknown experiment ran")
	}
}

// TestExperimentOutputs runs every experiment and checks for the
// signature content each must produce. The heavier sweeps are skipped
// under -short.
func TestExperimentOutputs(t *testing.T) {
	slow := map[string]bool{"E7": true, "E8": true, "E11": true, "E15": true, "E18": true, "E19": true, "E21": true, "E22": true}
	want := map[string][]string{
		"E1":  {"telnet", "report", "rdrop", "11.11.10.99 7 -> 11.11.10.10 1169", "Connection closed."},
		"E2":  {"sysUpTime changed: 1000", "sysUpTime changed: 2000", "no update"},
		"E3":  {"kati> streams", "[tcp,wsize]", "ipForwDatagrams"},
		"E4":  {"seq=1461 len=80", "ack=2921", "completed=true"},
		"E5":  {"wireless", "delivered intact: true"},
		"E6":  {"Comma(+Kati)", "Snoop", "BSSP"},
		"E7":  {"plain", "snoop", "split", "shape check"},
		"E8":  {"2048", "shape check"},
		"E9":  {"with ZWSM", "plain TCP", "persist probes"},
		"E10": {"sender completed", "true"},
		"E11": {"text (repetitive)", "image (random pixels)", "intact", "0.0719  true", "0.133   true"},
		"E12": {"no discard", "discard >0", "250/250"},
		"E13": {"triangular", "binding cache", "lost"},
		"E14": {"RGB image -> mono", "all tiles mono: true", "text preserved: true"},
		"E15": {"filters in queue", "ns/packet"},
		"E16": {"sender completed cleanly:        true", "⊆ original:      true"},
		"E17": {"I-TCP split", "completed cleanly", "knows delivery failed"},
		"E18": {"interactive alone", "wsize cap on bulk  51.7", "shape check"},
		"E19": {"Bernoulli", "Gilbert", "finding"},
		"E20": {"no service", "cache filter at proxy", "shape check"},
		"E21": {"link ARQ", "snoop (TCP-aware)", "finding"},
		"E22": {"slow cell", "adaptations", "shape check"},
	}
	for _, e := range experiments.All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if testing.Short() && slow[e.ID] {
				t.Skip("slow sweep")
			}
			var sb strings.Builder
			if err := experiments.Run(e.ID, &sb); err != nil {
				t.Fatal(err)
			}
			out := sb.String()
			if len(out) < 100 {
				t.Fatalf("suspiciously short output:\n%s", out)
			}
			for _, w := range want[e.ID] {
				if !strings.Contains(out, w) {
					t.Errorf("output missing %q:\n%s", w, out)
				}
			}
		})
	}
}

// TestExperimentsDeterministic is the determinism gate of E1–E22: every
// experiment but E15 (its two tables are wall-clock) runs twice, the
// two outputs must be byte-identical and must hash to the digest
// committed in testdata/experiments.sha256 — the same gate TestScenarios
// is for the scripted scenarios.
func TestExperimentsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments twice")
	}
	var rows []gateRow
	for _, e := range experiments.All() {
		if id := e.ID; id != "E15" {
			rows = append(rows, gateRow{name: id, run: func(w io.Writer) error { return experiments.Run(id, w) }})
		}
	}
	digestGate(t, experimentDigests, rows)
}
