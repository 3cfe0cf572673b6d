// Package experiments regenerates every table- and figure-shaped
// artifact of the thesis (see DESIGN.md's per-experiment index,
// E1–E22) and runs the scripted scenarios. Each row of Table builds
// fresh deterministic simulations via internal/core from its seed,
// prints its result through internal/trace, and returns an error when
// a claim of its output does not hold. cmd/wsim runs the rows; the
// repository benchmark's sim-suite workload times the scenarios.
package experiments

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/faults"
)

// Experiment is one row of Table: a thesis reproduction (Paper set) or
// a scripted scenario on the reference topology.
type Experiment struct {
	Name        string // `wsim -exp <Name>`
	Seed        int64  // gate seed: what the digest gate runs, and wsim when -seed is unset
	Paper       string // the thesis artifact it regenerates; empty for a scenario
	Description string
	Run         func(seed int64, w io.Writer) error
}

// Table lists every row in order: E1–E22, then the six scenarios.
// Adding a row is all it takes to give it a `wsim -exp` name, a line in
// the digest gate and a place in the seed sweep.
var Table = []Experiment{
	{"E1", 11, "Fig 5.3 (SP interface example)",
		"Telnet session to the service proxy: report, add rdrop 50%, report, delete wsize, report.", runE1},
	{"E2", 12, "Fig 6.2 + Tables 6.1–6.7 (EEM sample client)",
		"Register sysUpTime with an IN [0,20s] attribute, poll the protected data area at 10s intervals for two minutes.", runE2},
	{"E3", 13, "Figs 7.1–7.4 (Kati session)",
		"Third-party service control: view streams, add a service from Kati, new service appears.", runE3},
	{"E4", 14, "Figs 8.2/8.3 (TTSF packet-dropping example)",
		"A service drops one segment under the TTSF; endpoint traces show the sequence-space remapping.", runE4},
	{"E5", 15, "Fig 8.4 (TTSF packet-compression example)",
		"Double-proxy transparent compression; per-hop byte counts show the wireless savings.", runE5},
	{"E6", 0, "Table 3.1 (comparison of the work reviewed)",
		"The thesis's related-work matrix, annotated with what this repository implements.", runE6},
	{"E7", 41, "§2.3/§8.2.1 claim (TCP misreads wireless loss as congestion; snoop repairs it)",
		"Goodput vs wireless loss rate: plain TCP vs TCP behind the snoop filter.", runE7},
	{"E8", 8, "§8.2.2 claim (BSSP stream prioritization)",
		"Two competing streams; capping the low-priority stream's window shifts bandwidth to the priority stream.", runE8},
	{"E9", 7, "§8.2.2 claim (ZWSM disconnection management)",
		"Burst sent during a 20s disconnection: sender timeouts and restart latency with vs without ZWSM.", runE9},
	{"E10", 10, "§8.1.5 (rdrop under the TTSF)",
		"Permanent data reduction: wireless bytes and delivered fraction vs drop rate, sender always completes.", runE10},
	{"E11", 11, "§8.1.6 + Table 8.1 (compression by data class)",
		"Transparent compression savings for the thesis's data classes (text, image, binary).", runE11},
	{"E12", 12, "§8.3.2 (hierarchical discard)",
		"Layered media over a constrained wireless link: base-layer on-time delivery with and without discard.", runE12},
	{"E13", 13, "§2.1 (Mobile IP: triangular routing, handoff loss)",
		"Tunnel-path latency vs binding-cache optimization; packets lost across a handoff gap.", runE13},
	{"E14", 14, "§8.3.3 (data-type translation)",
		"Colour→mono image tiles and rich-text→ASCII: wireless bandwidth reduction with intact semantics.", runE14},
	{"E15", 16, "§5.2 (filter-queue mechanism)",
		"Proxy forwarding cost vs filter-queue depth (stacked 0%-rdrop filters as no-ops).", runE15},
	{"E16", 99, "§8.1 end-to-end invariant",
		"One seeded instance of the randomized TTSF property (full test: TestTTSFPropertyRandomTransformations).", runE16},
	{"E17", 17, "§5.1.2 (the end-to-end semantics problem)",
		"A permanent mid-transfer disconnection: the split-connection proxy (I-TCP) silently loses data it already acknowledged; end-to-end TCP — whose ack semantics every Comma service preserves — never lies to the sender.", runE17},
	{"E18", 18, "§8.2.2 claim (priority streams get 'more bandwidth and smaller delay')",
		"Interactive session latency while a bulk download shares the wireless link, with and without capping the bulk stream's window.", runE18},
	{"E19", 41, "§2.3 ablation (burst loss)",
		"E7 repeated under Gilbert–Elliott burst loss instead of independent loss, at the same average rate.", runE19},
	{"E20", 20, "§5.2 (application partitioning / proxy-as-agent)",
		"The cache filter answers repeated document fetches at the proxy: response latency and wired-link traffic with and without the service.", runE20},
	{"E21", 51, "§3.2 (AIRMAIL-style link ARQ vs TCP-aware snoop)",
		"A TCP-oblivious link-layer ARQ hides loss but produces duplicates and delay spikes that trigger spurious sender retransmissions; snoop repairs loss without confusing the transport.", runE21},
	{"E22", 22, "ch. 6 motivation (adaptive services via the EEM)",
		"The adiscard filter follows link quality through a mobility trajectory: full quality on a fast cell, base-layer-only on a slow one, restored on return — with base frames on time throughout.", runE22},
	{"events", 7, "", "observability demo: the full event log and metrics snapshot of EEM sessions, packet tracing and a filtered transfer", ObsDemo},
	{"chaos", 11, "", "chaos soak: transfers survive the fault matrix; quarantine, EEM redial, policy fire/revert", faults.Chaos},
	{"adapt", 13, "", "adaptive services: policy engines load comp/decomp on degrade and unload on restore; every leg intact", AdaptDemo},
	{"flows", 17, "", "flow-log analytics: a rule fires on flow.retrans_ratio under loss and reverts after", FlowsDemo},
	{"migrate", 23, "", "live stream migration: completed XOR resumed on every fault leg; TTSF state continuity", MigrateDemo},
	{"mmwave", 7, "", "5G mmWave: blockage-trace replay, mwin window control, LTE shedding", MMWaveDemo},
}

// Exec runs the row at seed, after the "=== Name — Paper ===" banner
// when the row reproduces a thesis artifact.
func (e Experiment) Exec(seed int64, w io.Writer) error {
	if e.Paper != "" {
		fmt.Fprintf(w, "=== %s — %s ===\n%s\n\n", e.Name, e.Paper, e.Description)
	}
	return e.Run(seed, w)
}

// RunAll runs every thesis row (E1–E22) at its gate seed in order, a
// blank line after each, and returns the failures joined.
func RunAll(w io.Writer) error {
	var errs []error
	for _, e := range Table {
		if e.Paper == "" {
			continue
		}
		errs = append(errs, e.Exec(e.Seed, w))
		fmt.Fprintln(w)
	}
	return errors.Join(errs...)
}
