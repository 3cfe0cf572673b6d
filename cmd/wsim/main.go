// Command wsim runs the rows of experiments.Table on the deterministic
// network simulator: the thesis's tables and figures (E1–E22, indexed
// in DESIGN.md) and the scripted scenarios (README.md "Scripted
// scenarios"). Output is byte-identical per seed, except the wall-clock
// tables of E15.
//
// Usage:
//
//	wsim -list             list every row with its gate seed
//	wsim -exp E7           run one row by name (an experiment or a scenario)
//	wsim -exp chaos -seed 42
//	                       -seed defaults to the row's gate seed, the one
//	                       its committed digest was cut at
//	wsim -all              run E1–E22 in order at their gate seeds
//
// wsim exits 1 when a row's output breaks one of its own claims.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list every row with its gate seed")
	exp := flag.String("exp", "", "run one row by name (e.g. E7, chaos)")
	all := flag.Bool("all", false, "run every experiment (E1–E22) at its gate seed")
	seed := flag.Int64("seed", 0, "simulation seed for -exp (default: the row's gate seed)")
	flag.Parse()
	seedSet := false
	flag.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })

	var err error
	switch {
	case *list:
		for _, e := range experiments.Table {
			fmt.Printf("%-8s %-3d %-55s %s\n", e.Name, e.Seed, e.Paper, e.Description)
		}
	case *exp != "":
		err = fmt.Errorf("wsim: no row %q (see wsim -list)", *exp)
		for _, e := range experiments.Table {
			if e.Name == *exp {
				if !seedSet {
					*seed = e.Seed
				}
				err = e.Exec(*seed, os.Stdout)
				break
			}
		}
	case *all:
		err = experiments.RunAll(os.Stdout)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
