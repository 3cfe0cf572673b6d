package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one traced interval. Spans that belong to one sampled packet,
// flow or scenario iteration share Trace; Parent is the ID of the span
// that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer records spans in memory; one tracer per goroutine, merged by
// writeTrace. A nil tracer records nothing, so the untraced run pays a
// nil check per call site.
type tracer struct {
	base  int64 // first ID this tracer hands out
	spans []span
}

const maxSpans = 1 << 14 // per tracer; later spans are dropped

var traceEpoch = time.Now()

func nowNs() int64 { return int64(time.Since(traceEpoch)) }

func newTracer(base int64) *tracer {
	return &tracer{base: base, spans: make([]span, 0, maxSpans)}
}

// add records a finished span and returns its ID (0 when dropped).
func (t *tracer) add(name string, parent, trace, start, end int64) int64 {
	if t == nil || len(t.spans) == cap(t.spans) {
		return 0
	}
	id := t.base + int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: start, End: end})
	return id
}

// reserve hands out the ID of a span that is added later with set, so
// children recorded in between can name it as their parent.
func (t *tracer) reserve() int64 {
	if t == nil || len(t.spans) == cap(t.spans) {
		return 0
	}
	t.spans = append(t.spans, span{})
	return t.base + int64(len(t.spans))
}

func (t *tracer) set(id int64, name string, parent, trace, start, end int64) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-t.base-1] = span{ID: id, Parent: parent, Trace: trace, Name: name, Start: start, End: end}
}

// traceSummary is the per-name total written beside the spans.
type traceSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalNs int64   `json:"total_ns"`
	SelfNs  int64   `json:"self_ns"`
	MeanNs  float64 `json:"mean_ns"`
}

// writeTrace merges the tracers, computes every span's self time (its
// duration minus the part its children cover) and writes spans plus a
// per-name summary to path.
func writeTrace(path, workload string, tracers ...*tracer) error {
	var all []span
	for _, t := range tracers {
		if t != nil {
			all = append(all, t.spans...)
		}
	}
	idx := make(map[int64]int, len(all))
	for i := range all {
		all[i].Self = all[i].End - all[i].Start
		idx[all[i].ID] = i
	}
	for _, s := range all {
		if p, ok := idx[s.Parent]; ok && s.Parent != 0 {
			all[p].Self -= s.End - s.Start
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	byName := map[string]*traceSummary{}
	for _, s := range all {
		ts := byName[s.Name]
		if ts == nil {
			ts = &traceSummary{Name: s.Name}
			byName[s.Name] = ts
		}
		ts.Count++
		ts.TotalNs += s.End - s.Start
		ts.SelfNs += s.Self
	}
	var summary []traceSummary
	for _, ts := range byName {
		ts.MeanNs = float64(ts.TotalNs) / float64(ts.Count)
		summary = append(summary, *ts)
	}
	sort.Slice(summary, func(i, j int) bool { return summary[i].Name < summary[j].Name })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		Workload string         `json:"workload"`
		Summary  []traceSummary `json:"summary"`
		Spans    []span         `json:"spans"`
	}{workload, summary, all})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
