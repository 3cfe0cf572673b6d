package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json compare needs.
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
}

// resultSet is the untraced runs of one file written with --out:
// values[workload][metric] in run order.
type resultSet map[string]map[string][]float64

func readResultSet(path string) (resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rs := resultSet{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var rec struct {
			Workload string
			Trace    bool
			Result   struct {
				Correct bool
				Metrics map[string]struct{ Value float64 }
			}
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if rec.Trace {
			continue
		}
		if !rec.Result.Correct {
			return nil, fmt.Errorf("%s:%d: a %s run was not correct", path, n, rec.Workload)
		}
		if rs[rec.Workload] == nil {
			rs[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Result.Metrics {
			rs[rec.Workload][name] = append(rs[rec.Workload][name], m.Value)
		}
	}
	return rs, sc.Err()
}

// spread is the distance between the first and third quartile as a
// share of the median, with the quartiles of Python's
// statistics.quantiles(values, n=4) (exclusive method).
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		i := int(pos)
		i = max(1, min(i, len(s)-1))
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return (q(3) - q(1)) / median(s)
}

// compareMain implements `bench compare A.json [B.json]`. With one
// set it prints each workload x end-to-end metric's median and spread
// and fails when a spread exceeds the metric's bound (set-up time
// excepted). With two it also prints how much worse B's median is than
// A's and fails when that exceeds the bound.
func compareMain(args []string) int {
	if len(args) < 1 || len(args) > 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json [B.json]   (result sets written with --out; run from the repository root)")
		return 2
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	var sp spec
	if err == nil {
		err = json.Unmarshal(raw, &sp)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	var sets []resultSet
	for _, path := range args {
		rs, err := readResultSet(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 2
		}
		sets = append(sets, rs)
	}
	bad := 0
	fmt.Printf("%-10s %-14s %6s %4s", "workload", "metric", "bound", "n")
	for i := range sets {
		fmt.Printf(" %16s %7s", "median "+string(rune('A'+i)), "spread")
	}
	if len(sets) == 2 {
		fmt.Printf(" %9s", "B worse")
	}
	fmt.Println()
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			fmt.Printf("%-10s %-14s %5.1f%% %4d", w.Name, m.Name, 100*m.Bound, len(sets[0][w.Name][m.Name]))
			verdict := ""
			var med [2]float64
			for i, rs := range sets {
				xs := rs[w.Name][m.Name]
				if len(xs) == 0 {
					verdict += " MISSING"
					bad++
					continue
				}
				med[i] = median(append([]float64(nil), xs...))
				sprd := spread(xs)
				fmt.Printf(" %16.4f %6.2f%%", med[i], 100*sprd)
				if sprd > m.Bound && m.Name != "setup_s" {
					verdict += " SPREAD"
					bad++
				}
			}
			if len(sets) == 2 && med[0] > 0 && med[1] > 0 {
				worse := (med[1] - med[0]) / med[0]
				if m.Better == "higher" {
					worse = -worse
				}
				fmt.Printf(" %+8.2f%%", 100*worse)
				if worse > m.Bound {
					verdict += " WORSE"
					bad++
				}
			}
			fmt.Println(verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("FAIL: %d findings beyond bound\n", bad)
		return 1
	}
	fmt.Println("ok: every spread and every gap is within its bound")
	return 0
}
