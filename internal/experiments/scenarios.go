package experiments

import (
	"io"

	"repro/internal/faults"
)

// Scenario is one scripted run on the reference topology whose full
// output is gated byte for byte. The table below is the single source
// for cmd/wsim's scenario flags, for TestScenarios (and through it
// `make scenarios` and the CI job), and for the table in README.md.
type Scenario struct {
	Name string // wsim flag: -<Name>
	Seed int64  // gate seed: what TestScenarios digests and wsim runs when -seed is unset
	Help string // wsim flag help
	Run  func(seed int64, w io.Writer) error
}

// Scenarios lists every gated scenario. Adding a row is all it takes
// to give a new scenario its flag, its determinism check and its
// committed digest.
var Scenarios = []Scenario{
	{"events", 7, "run the observability demo scenario", ObsDemo},
	{"chaos", 11, "run the chaos soak scenario (fault injection)", faults.Chaos},
	{"adapt", 13, "run the adaptive-services scenario (policy engine)", AdaptDemo},
	{"flows", 17, "run the flow-log analytics scenario (per-flow records feed the policy loop)", FlowsDemo},
	{"migrate", 23, "run the live stream-migration scenario (crash-safe proxy-to-proxy handoff)", MigrateDemo},
	{"mmwave", 7, "run the 5G mmWave scenario (blockage-trace replay, mwin window control, LTE shedding)", MMWaveDemo},
}
