package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
)

// sizes are the fixed input sizes of the six workloads. They are chosen so
// one invocation (three set-ups, --seconds of measurement, output check)
// ends within five seconds of its window on two cores, and are changed
// only together with a new baseline. -size smoke shrinks them for the
// package's tests.
type sizes struct {
	// Env is the environment preset of the fig4 manifests; FleetEnv of
	// the fleet manifest (both "tiny" under -size smoke).
	Env      string
	FleetEnv string
	// FleetVehicles and FleetHorizonS override the preset for fleet-sim.
	FleetVehicles int
	FleetHorizonS float64
	// ColdSeeds, WarmSeeds and Fig4Seeds are the seed-list lengths of one
	// submitted campaign (×4 runs: two strategies, two scenarios).
	ColdSeeds, WarmSeeds, Fig4Seeds int
	// RestartRefs queue refs are enqueued, RestartDriven of them driven
	// to completion, in batches of RestartBatch.
	RestartRefs, RestartDriven, RestartBatch int
	// Sample and SampleFig4 are how many run keys the output check
	// re-executes in-process (tiny runs, default-env runs).
	Sample, SampleFig4 int
	// SchedulerRuns and SchedulerRunsFig4 bound the single-threaded
	// scheduler baseline replay.
	SchedulerRuns, SchedulerRunsFig4 int
	// SetupRepeats is how many times the workload is set up afresh in one
	// run: setup_s is the median, and each instance gets an equal share
	// of the measurement window.
	SetupRepeats int
}

var fullSizes = sizes{
	Env: "default", FleetEnv: "default",
	FleetVehicles: 1000, FleetHorizonS: 600,
	ColdSeeds: 48, WarmSeeds: 16, Fig4Seeds: 2,
	RestartRefs: 20000, RestartDriven: 12000, RestartBatch: 256,
	Sample: 32, SampleFig4: 2,
	SchedulerRuns: 128, SchedulerRunsFig4: 4,
	SetupRepeats: 3,
}

var smokeSizes = sizes{
	Env: "tiny", FleetEnv: "tiny",
	FleetVehicles: 32, FleetHorizonS: 300,
	ColdSeeds: 2, WarmSeeds: 2, Fig4Seeds: 1,
	RestartRefs: 100, RestartDriven: 60, RestartBatch: 16,
	Sample: 4, SampleFig4: 2,
	SchedulerRuns: 4, SchedulerRunsFig4: 2,
	SetupRepeats: 1,
}

// workerCapacity is how many claims a worker process may hold at once.
const workerCapacity = 4

// tally counts operations attempted and failed. A refused or failed
// operation is counted here, never dropped and never timed as fast.
type tally struct {
	attempted, failed int
	notes             []string
}

func (t *tally) ok(n int) { t.attempted += n }

func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	if len(t.notes) < 8 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// benchEnv is what one workload run is given.
type benchEnv struct {
	bin     string // the roadrunnerd binary service workloads spawn
	workdir string // scratch directory of this run, on a real filesystem
	seed    uint64
	sz      sizes
	traced  bool
	tally   *tally
	// layer collects per-layer metrics by name; facts collects printed
	// identities (hashes, exact-repeat statistics) that are not metrics.
	layer map[string]float64
	facts map[string]string
}

func (e *benchEnv) emit(name string, v float64) { e.layer[name] = v }

// scratch makes a fresh sub-directory of the run's workdir.
func (e *benchEnv) scratch(prefix string) (string, error) {
	return os.MkdirTemp(e.workdir, prefix+"-")
}

// opResult is one timed operation as the runner sees it.
type opResult struct {
	wall float64 // seconds from first request to verified output in hand
	runs int     // units of work: simulation runs, or queue refs recovered
	cpuS float64 // user+system CPU of the processes under test
}

// workload is one named benchmark workload. The runner sets it up several
// times — setup_s is the median — and after each set-up runs a share of
// the measurement window on that instance, so the pooled operations span
// several independently started instances of the program under test.
type workload interface {
	setup(ctx context.Context) error
	// op runs operation i; rec is nil on untraced operations.
	op(ctx context.Context, i int, rec *recorder) (opResult, error)
	// verify checks the outputs of the operations run on the current
	// instance; it is called once per instance, after its operations.
	verify(ctx context.Context, rec *recorder, instance int, last bool) error
	// layers replays single layers and emits the per-layer metrics.
	layers(ctx context.Context, rec *recorder, traced *measurement) error
	// peakRSSMB is the peak resident memory of the processes under test.
	peakRSSMB() float64
	// service reports whether the program under test runs in processes of
	// its own, so the generator's CPU can be told apart from it.
	service() bool
	teardown()
}

// Set-up is repeated beyond the instances that are measured while fewer
// than cheapSetupSamples set-ups have been timed and all of them together
// took less than cheapSetupBudgetS seconds.
const (
	cheapSetupSamples = 15
	cheapSetupBudgetS = 1.0
)

// tracedOpBase is the index of the first traced operation. Operation
// indices pick the seeds an operation runs on, so a fixed base makes the
// traced operations' inputs — and with them every exact-repeat count —
// depend on the seed alone, not on how many untraced operations the
// machine fitted into the first half of the window.
const tracedOpBase = 1 << 10

// measurement is a closed loop of operations, possibly continued over
// several instances of the workload.
type measurement struct {
	ops     []opResult
	firstOp int     // index of the loop's first operation
	elapsed float64 // seconds spent inside the loop so far
	selfCPU float64 // generator-process CPU spent during the loop
}

func (m *measurement) walls() []float64 {
	out := make([]float64, len(m.ops))
	for i, o := range m.ops {
		out[i] = o.wall
	}
	return out
}

func (m *measurement) totals() (wall, cpu float64, runs int) {
	return totals(m.ops)
}

func totals(ops []opResult) (wall, cpu float64, runs int) {
	for _, o := range ops {
		wall += o.wall
		cpu += o.cpuS
		runs += o.runs
	}
	return
}

// rateSlices is how many contiguous slices of a loop's operations a rate is
// the median of.
const rateSlices = 12

// rates returns runs per wall second and runs per CPU second, each as the
// median over rateSlices contiguous, equally long slices of the loop's
// operations (over the operations themselves when there are fewer). A
// median over slices shrugs off what a mean over the whole loop does not:
// the few seconds a shared host takes the processor away, one slow first
// operation on a fresh instance. CPU time of a child is read in clock
// ticks, so a slice too short to have used any is no sample: the slices
// are widened until each has a CPU reading.
func (m *measurement) rates() (perS, perCPUS float64) {
	for n := min(rateSlices, len(m.ops)); n >= 1; n /= 2 {
		var byWall, byCPU []float64
		for i := 0; i < n; i++ {
			wall, cpu, runs := totals(m.ops[i*len(m.ops)/n : (i+1)*len(m.ops)/n])
			if wall <= 0 || cpu <= 0 {
				break
			}
			byWall = append(byWall, float64(runs)/wall)
			byCPU = append(byCPU, float64(runs)/cpu)
		}
		if len(byWall) == n {
			return median(byWall), median(byCPU)
		}
	}
	return 0, 0
}

// run issues operations one after another — one client, closed loop —
// until the loop's clock passes until. At least one operation runs; a
// further one is started only while half of it still fits, so the window
// is overshot by at most half an operation.
func (m *measurement) run(ctx context.Context, w workload, until float64, rec *recorder) error {
	self0 := selfCPU()
	defer func() { m.selfCPU += selfCPU() - self0 }()
	start := m.elapsed
	t0 := now()
	for {
		r, err := w.op(ctx, m.firstOp+len(m.ops), rec)
		if err != nil {
			return err
		}
		m.ops = append(m.ops, r)
		m.elapsed = start + since(t0)
		if m.elapsed+r.wall/2 >= until {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
}

// workloadResult is everything one workload run produced.
type workloadResult struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Notes     []string               `json:"notes,omitempty"`
	OpS       opSummary              `json:"op_s"`
	Metrics   map[string]metricValue `json:"metrics"`
	Facts     map[string]string      `json:"facts,omitempty"`
}

// opSummary states the per-operation timing with its sample count: the
// median, and the highest percentile that has ten samples beyond it.
type opSummary struct {
	N        int     `json:"n"`
	P50      float64 `json:"p50"`
	HighPct  float64 `json:"high_pct,omitempty"`
	HighS    float64 `json:"high_s,omitempty"`
	SetupN   int     `json:"setup_n"`
	SetupMax float64 `json:"setup_max_s"`
}

func summarize(walls, setups []float64) opSummary {
	s := opSummary{N: len(walls), P50: median(walls), SetupN: len(setups), SetupMax: percentile(setups, 100)}
	if p, ok := highPercentile(len(walls)); ok {
		s.HighPct, s.HighS = p, percentile(walls, p)
	}
	return s
}

// runWorkload runs one workload once and returns its metrics: the
// end-to-end set when untraced, the per-layer set when traced.
func runWorkload(ctx context.Context, spec *benchSpec, e *benchEnv, name string, seconds float64, outDir string) (*workloadResult, error) {
	w, err := newWorkload(name, e)
	if err != nil {
		return nil, err
	}
	defer w.teardown()
	res := &workloadResult{Workload: name, Seed: e.seed, Traced: e.traced}
	var setups []float64
	setup := func() error {
		t0 := now()
		if err := w.setup(ctx); err != nil {
			return fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, since(t0))
		return nil
	}
	var emitted map[string]float64
	var decls []metricDecl
	if !e.traced {
		m := &measurement{}
		var rss float64
		n := e.sz.SetupRepeats
		for r := 0; r < n; r++ {
			if r > 0 {
				w.teardown()
			}
			if err := setup(); err != nil {
				return nil, err
			}
			if err := m.run(ctx, w, seconds*float64(r+1)/float64(n), nil); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			if err := w.verify(ctx, nil, r, r == n-1); err != nil {
				return nil, fmt.Errorf("%s output check: %w", name, err)
			}
			rss = max(rss, w.peakRSSMB())
		}
		// A set-up of a few milliseconds (spawn three processes) is too
		// short for a median of three to be steady: cheap set-ups are
		// repeated until their sum is worth timing.
		for len(setups) < cheapSetupSamples && sum(setups) < cheapSetupBudgetS {
			w.teardown()
			if err := setup(); err != nil {
				return nil, err
			}
		}
		perS, perCPUS := m.rates()
		emitted = map[string]float64{
			"setup_s":        median(setups),
			"runs_per_s":     perS,
			"runs_per_cpu_s": perCPUS,
			"peak_rss_mb":    rss,
		}
		decls = spec.EndToEnd
		res.OpS = summarize(m.walls(), setups)
	} else {
		// One instance; half the window untraced, half traced. End-to-end
		// numbers never come from here, but the pair gives the tracing
		// overhead.
		if err := setup(); err != nil {
			return nil, err
		}
		base := &measurement{}
		if err := base.run(ctx, w, seconds/2, nil); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		rec := newRecorder(name)
		traced := &measurement{firstOp: tracedOpBase}
		if err := traced.run(ctx, w, seconds/2, rec); err != nil {
			return nil, fmt.Errorf("%s traced: %w", name, err)
		}
		if err := w.verify(ctx, rec, 0, true); err != nil {
			return nil, fmt.Errorf("%s output check: %w", name, err)
		}
		if err := w.layers(ctx, rec, traced); err != nil {
			return nil, fmt.Errorf("%s layer replay: %w", name, err)
		}
		bw, _, br := base.totals()
		tw, tcpu, tr := traced.totals()
		e.emit("bench.trace_overhead_pct", 100*((tw/float64(tr))/(bw/float64(br))-1))
		if w.service() {
			e.emit("bench.generator_cpu_share", traced.selfCPU/(traced.selfCPU+tcpu))
		}
		emitted, decls = e.layer, spec.PerLayer
		res.OpS = summarize(traced.walls(), setups)
		if outDir != "" {
			if err := rec.write(filepath.Join(outDir, name+".trace.json")); err != nil {
				return nil, err
			}
		}
	}
	res.Metrics, err = resolve(decls, emitted, !e.traced)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	res.Attempted, res.Failed, res.Notes = e.tally.attempted, e.tally.failed, e.tally.notes
	res.Correct = res.Failed == 0 && res.Attempted > 0
	res.Facts = e.facts
	return res, nil
}

func newWorkload(name string, e *benchEnv) (workload, error) {
	switch name {
	case "fig4-sim":
		return newSimWorkload(e, fig4Manifest), nil
	case "fleet-sim":
		return newSimWorkload(e, fleetManifest), nil
	case "cluster-cold":
		return &clusterWorkload{e: e, kind: coldKind}, nil
	case "cluster-warm":
		return &clusterWorkload{e: e, kind: warmKind}, nil
	case "cluster-fig4":
		return &clusterWorkload{e: e, kind: fig4Kind}, nil
	case "restart":
		return &restartWorkload{e: e}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
