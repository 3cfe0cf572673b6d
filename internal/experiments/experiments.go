// Package experiments regenerates every table- and figure-shaped
// artifact of the thesis (see DESIGN.md's per-experiment index,
// E1–E16). Each experiment builds a fresh deterministic simulation via
// internal/core, drives the scenario, and prints its result through
// internal/trace. cmd/wsim runs them from the command line; the
// repository benchmark's sim-suite workload times the scenario table.
package experiments

import (
	"fmt"
	"io"
	"sort"
)

// Experiment is one runnable reproduction.
type Experiment struct {
	ID          string
	Paper       string // the thesis artifact it regenerates
	Description string
	Run         func(w io.Writer)
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate id " + e.ID)
	}
	registry[e.ID] = e
}

// All returns the experiments sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		// Numeric-aware: E2 before E10.
		a, b := out[i].ID, out[j].ID
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a < b
	})
	return out
}

// Run executes one experiment by ID.
func Run(id string, w io.Writer) error {
	e, ok := registry[id]
	if !ok {
		return fmt.Errorf("experiments: unknown id %q", id)
	}
	fmt.Fprintf(w, "=== %s — %s ===\n%s\n\n", e.ID, e.Paper, e.Description)
	e.Run(w)
	return nil
}

// RunAll executes every experiment in order.
func RunAll(w io.Writer) {
	for _, e := range All() {
		Run(e.ID, w)
		fmt.Fprintln(w)
	}
}
