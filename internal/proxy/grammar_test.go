package proxy

import "testing"

// TestHelpLineGolden pins the SP help line byte-for-byte: it is part of
// the control-interface surface that experiment outputs and Kati
// transcripts depend on, so grammar-table edits must show up here.
func TestHelpLineGolden(t *testing.T) {
	const want = "commands: load remove add delete report streams filters service unservice services stats events flows auth help\n"
	if got := HelpLine(); got != want {
		t.Fatalf("HelpLine():\n got %q\nwant %q", got, want)
	}
	const wantExt = "commands: load remove add delete report streams filters service unservice services stats events flows auth help policy\n"
	if got := HelpLine("policy"); got != wantExt {
		t.Fatalf("HelpLine(policy):\n got %q\nwant %q", got, wantExt)
	}
	// Extension names are sorted regardless of registration order.
	const wantTwo = "commands: load remove add delete report streams filters service unservice services stats events flows auth help aaa policy\n"
	if got := HelpLine("policy", "aaa"); got != wantTwo {
		t.Fatalf("HelpLine(policy, aaa):\n got %q\nwant %q", got, wantTwo)
	}
}

// TestKatiHelpGolden pins the generated forwarded-command section of
// Kati's help text.
func TestKatiHelpGolden(t *testing.T) {
	const want = "" +
		"  load <filter-lib>                      load a filter library\n" +
		"  remove <filter-lib>                    unload a filter library\n" +
		"  add <filter> <srcIP> <srcPort> <dstIP> <dstPort> [args] add a filter/service to a stream key\n" +
		"  delete <filter> <srcIP> <srcPort> <dstIP> <dstPort> remove a filter/service from a stream key\n" +
		"  report [<filter>]                      per-filter stream report\n" +
		"  streams                                active streams with packet/byte accounting\n" +
		"  filters                                loaded and loadable filters\n" +
		"  service <name> <filter[:args]>...      define a named composition\n" +
		"  unservice <name>                       undefine a named composition\n" +
		"  services                               list defined services\n" +
		"  stats                                  unified metrics snapshot (proxy/links/tcp/eem)\n" +
		"  events [n]                             tail of the observability event log\n" +
		"  flows [n]                              per-flow L4 records (active + recently closed)\n" +
		"  auth <token>                           authenticate a guarded proxy\n" +
		"  policy list|add <rule>|del <name>|trace [n] inspect and mutate adaptive policy rules\n" +
		"  migrate <srcIP> <srcPort> <dstIP> <dstPort> <peerIP> hand the keyed stream (and its filter state) to the peer SP\n"
	if got := KatiHelp(); got != want {
		t.Fatalf("KatiHelp():\n got %q\nwant %q", got, want)
	}
}

func TestLookupAndFlags(t *testing.T) {
	for _, name := range []string{"load", "remove", "add", "delete", "report",
		"streams", "filters", "service", "unservice", "services", "stats",
		"events", "flows", "auth", "help", "policy", "migrate"} {
		if _, ok := Lookup(name); !ok {
			t.Errorf("Lookup(%q) missing", name)
		}
	}
	if _, ok := Lookup("bogus"); ok {
		t.Errorf("Lookup(bogus) unexpectedly present")
	}
	mutating := func(name string) bool {
		s, ok := Lookup(name)
		return ok && s.Mutating
	}
	for _, name := range []string{"load", "remove", "add", "delete", "service", "unservice", "policy", "migrate"} {
		if !mutating(name) {
			t.Errorf("%q is not mutating, want mutating", name)
		}
	}
	for _, name := range []string{"report", "streams", "filters", "services",
		"stats", "events", "flows", "auth", "help", "bogus"} {
		if mutating(name) {
			t.Errorf("%q is mutating, want read-only", name)
		}
	}
	if KatiForwards("help") || KatiForwards("bogus") {
		t.Errorf("KatiForwards should exclude help and unknown names")
	}
	if !KatiForwards("load") || !KatiForwards("policy") || !KatiForwards("migrate") {
		t.Errorf("KatiForwards should include load, policy, and migrate")
	}
}

func TestArityAndUsage(t *testing.T) {
	cases := []struct {
		name       string
		n          int
		ok         bool
		usageError string
	}{
		{"load", 0, false, "error: usage: load <filter-lib>\n"},
		{"load", 1, true, ""},
		{"load", 2, false, ""},
		{"add", 4, false, "error: usage: add <filter> <srcIP> <srcPort> <dstIP> <dstPort> [args]\n"},
		{"add", 5, true, ""},
		{"add", 9, true, ""},
		{"delete", 5, true, ""},
		{"delete", 6, false, "error: usage: delete <filter> <srcIP> <srcPort> <dstIP> <dstPort>\n"},
		{"report", 0, true, ""},
		{"help", 0, true, ""},
		{"policy", 0, false, "error: usage: policy list|add <rule>|del <name>|trace [n]\n"},
		{"policy", 1, true, ""},
		{"policy", 12, true, ""},
	}
	for _, c := range cases {
		s, ok := Lookup(c.name)
		if !ok {
			t.Fatalf("Lookup(%q) missing", c.name)
		}
		if got := s.ArityOK(c.n); got != c.ok {
			t.Errorf("%s.ArityOK(%d) = %v, want %v", c.name, c.n, got, c.ok)
		}
		if c.usageError != "" && s.UsageError() != c.usageError {
			t.Errorf("%s.UsageError() = %q, want %q", c.name, s.UsageError(), c.usageError)
		}
	}
}
