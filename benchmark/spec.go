package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// BENCHMARK.json is the single declaration of workload and metric names,
// units, directions and bounds. The code emits metrics by name only and
// resolves everything else here, so the two cannot drift: emitting an
// undeclared name, or leaving a declared end-to-end metric unset, is an
// error at output time.

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the program reads.
type benchSpec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

// findRoot walks up from the working directory to the module root: the
// driver runs the benchmark from there, tests run from benchmark/.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// handWorkloads are implemented, tested and run by name like the others,
// but BENCHMARK.json does not list them, so `-workload all` and the driver
// leave them out: both are a stream of sub-millisecond system calls across
// three processes, and on a shared two-core VM their rates swing by more
// than any bound the contract allows (README, first baseline
// observations). They measure the same end-to-end and per-layer metrics.
var handWorkloads = []workloadDecl{
	{Name: "cluster-cold", Why: "192 tiny runs per campaign through coordinator + 1 worker on unseen seeds: queue appends, store Put fsyncs, lease verbs, HTTP and status polling dominate, simulation is minor."},
	{Name: "cluster-warm", Why: "the same 64-run campaign resubmitted on a filled store: store Get + verify, one fsync'd journal record per cached run and the merge do all the work, nothing executes."},
}

// every lists the workloads of BENCHMARK.json, then the hand-run ones.
func (s *benchSpec) every() []workloadDecl {
	return append(append([]workloadDecl(nil), s.Workloads...), handWorkloads...)
}

func (s *benchSpec) workload(name string) bool {
	for _, w := range s.every() {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metricValue is one reported number as the contract's result line
// carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resolve turns the values a workload emitted into the declared metric
// set. Every declared end-to-end metric must have been emitted; a
// per-layer metric the workload does not exercise reads 0.
func resolve(decls []metricDecl, emitted map[string]float64, required bool) (map[string]metricValue, error) {
	declared := make(map[string]bool, len(decls))
	out := make(map[string]metricValue, len(decls))
	for _, d := range decls {
		declared[d.Name] = true
		v, ok := emitted[d.Name]
		if !ok && required {
			return nil, fmt.Errorf("metric %s declared in BENCHMARK.json but not emitted", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	var stray []string
	for name := range emitted {
		if !declared[name] {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return nil, fmt.Errorf("metrics emitted but not declared in BENCHMARK.json: %v", stray)
	}
	return out, nil
}
