package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer of the program
// under test. Spans are recorded from outside — around the benchmark's
// own calls — so the traced run needs no change to the program.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	// Workload and Op identify the operation the span belongs to: spans
	// of one operation share both.
	Workload string  `json:"workload"`
	Op       int     `json:"op"`
	Start    float64 `json:"start_s"`
	End      float64 `json:"end_s"`
	// Counts holds work counted at the same boundary (bytes of a reply,
	// events of a run), so ratios are measured where the work happens.
	Counts map[string]float64 `json:"counts,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// recorder keeps spans in memory until the workload ends. A nil recorder
// is the tracing-off recorder: every method is a no-op, so the untraced
// run executes the same code path minus the bookkeeping.
type recorder struct {
	workload string
	t0       time.Time
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: now()}
}

// begin opens a span under parent (0 for a root) and returns its id.
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return 0
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name, Workload: r.workload, Op: op,
		Start: since(r.t0), End: -1,
	})
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].End = since(r.t0)
}

func (r *recorder) count(id int, key string, v float64) {
	if r == nil || id == 0 {
		return
	}
	s := &r.spans[id-1]
	if s.Counts == nil {
		s.Counts = make(map[string]float64)
	}
	s.Counts[key] += v
}

// durations returns the durations of every closed span called name, in
// recording order.
func (r *recorder) durations(name string) []float64 {
	if r == nil {
		return nil
	}
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, s.dur())
		}
	}
	return out
}

// counts returns the named count of every span called name.
func (r *recorder) counts(name, key string) []float64 {
	if r == nil {
		return nil
	}
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, s.Counts[key])
		}
	}
	return out
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its direct children cover
// (overlapping children are not double-counted).
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.End >= 0 && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		out[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) float64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total float64
	edge := parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, edge), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			edge = hi
		}
	}
	return total
}

// traceFile is the <out>/<workload>.trace.json document.
type traceFile struct {
	Workload string             `json:"workload"`
	Spans    []span             `json:"spans"`
	SelfS    map[string]float64 `json:"self_s"`
}

func (r *recorder) write(path string) error {
	data, err := json.MarshalIndent(traceFile{Workload: r.workload, Spans: r.spans, SelfS: selfTimes(r.spans)}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
