// Command wsim is the experiment driver: it regenerates the thesis's
// tables and figures (DESIGN.md's E1–E22 index) on the deterministic
// network simulator, and runs the scripted scenarios of
// experiments.Scenarios.
//
// Usage:
//
//	wsim -list             list experiments
//	wsim -exp E7           run one experiment
//	wsim -all              run every experiment in order
//	wsim -<scenario>       run one scenario; output is byte-identical
//	                       per seed, and -seed defaults to the seed its
//	                       committed digest was cut at
//
//	scenario   seed  topology                     asserts
//	-events    7     single proxy + Kati user     full event log and metrics snapshot replay exactly
//	-chaos     11    single proxy, lossy ARQ      transfers survive the fault matrix; quarantine, EEM redial, policy cycle
//	-adapt     13    double proxy                 comp/decomp load on degrade, unload on restore; every leg intact
//	-flows     17    single proxy                 rule fires on flow.retrans_ratio under loss, reverts after
//	-migrate   23    double proxy + migration     completed XOR resumed on every fault leg; TTSF state continuity
//	-mmwave    7     dual link mmWave + LTE       mwin queue peak below baseline; managed goodput >= 1.5x baseline
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list experiments")
	exp := flag.String("exp", "", "run one experiment by id (e.g. E7)")
	all := flag.Bool("all", false, "run every experiment")
	chosen := make([]*bool, len(experiments.Scenarios))
	for i, sc := range experiments.Scenarios {
		chosen[i] = flag.Bool(sc.Name, false, sc.Help)
	}
	seed := flag.Int64("seed", 0, "simulation seed for a scenario (default: the scenario's gate seed)")
	flag.Parse()
	var sc *experiments.Scenario
	for i := range chosen {
		if *chosen[i] && sc == nil {
			sc = &experiments.Scenarios[i]
		}
	}
	seedSet := false
	flag.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })

	var err error
	switch {
	case *list:
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %-55s %s\n", e.ID, e.Paper, e.Description)
		}
	case *exp != "":
		err = experiments.Run(*exp, os.Stdout)
	case *all:
		experiments.RunAll(os.Stdout)
	case sc != nil:
		if !seedSet {
			*seed = sc.Seed
		}
		err = sc.Run(*seed, os.Stdout)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
