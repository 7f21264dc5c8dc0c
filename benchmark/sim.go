package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"

	"roadrunner/internal/campaign"
	"roadrunner/internal/comm"
	"roadrunner/internal/core"
	"roadrunner/internal/dataset"
	"roadrunner/internal/metrics"
	"roadrunner/internal/ml"
	"roadrunner/internal/mobility"
	"roadrunner/internal/roadnet"
	"roadrunner/internal/sim"
	"roadrunner/internal/trace"
)

func seedList(from uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = from + uint64(i)
	}
	return out
}

var twoStrategies = []campaign.StrategySpec{{Kind: "fedavg"}, {Kind: "opp"}}
var twoScenarios = []string{campaign.ScenarioFaultFree, "blackout"}

// fig4Manifest is the paper's Figure-4 experiment: BASE and OPP, two
// rounds, with and without a coverage blackout — four runs per seed.
func fig4Manifest(sz sizes, from uint64, n int) campaign.Manifest {
	return campaign.Manifest{
		Name: "bench-fig4", Env: sz.Env, Rounds: 2,
		Strategies: twoStrategies, Seeds: seedList(from, n),
		Scenarios: twoScenarios, ScenarioSpanS: 400,
	}
}

// fleetManifest is OPP at fleet scale: one run per seed.
func fleetManifest(sz sizes, from uint64, n int) campaign.Manifest {
	v, h := sz.FleetVehicles, sz.FleetHorizonS
	return campaign.Manifest{
		Name: "bench-fleet", Env: sz.FleetEnv, Rounds: 2,
		Strategies: []campaign.StrategySpec{{Kind: "opp"}}, Seeds: seedList(from, n),
		Overrides: []campaign.Override{{Name: "fleet", Vehicles: &v, HorizonS: &h}},
	}
}

// tinyManifest is the service-bound campaign: four ~4 ms runs per seed.
func tinyManifest(_ sizes, from uint64, n int) campaign.Manifest {
	return campaign.Manifest{
		Name: "bench-tiny", Env: campaign.EnvTiny, Rounds: 2,
		Strategies: twoStrategies, Seeds: seedList(from, n), Scenarios: twoScenarios,
	}
}

type manifestFunc func(sz sizes, from uint64, n int) campaign.Manifest

// runObs is what one in-process run showed from outside: the time of each
// call into core and the counts core.Result exports.
type runObs struct {
	spec      campaign.RunSpec
	key       string
	canonical []byte
	res       *core.Result

	newS, runS, encodeS float64
	endS                float64
	events              uint64
	sent, delivered     int64
	bytes               int64
	trainTasks          float64
	// evals and ticks are counted from Config.Trace spans, so they are
	// only known on traced runs.
	evals, ticks int
}

// executeRun runs one spec the way the library path does — Strategy.Build,
// core.New, Run, CanonicalBytes — timing each call. With traced set it
// turns on Config.Trace, which is documented result-invariant, only to
// count eval and tick spans.
func executeRun(spec campaign.RunSpec, rec *recorder, parent, op int, traced bool) (*runObs, error) {
	o := &runObs{spec: spec}
	spec.Config.Trace = traced
	runSpan := rec.begin("run", parent, op)
	defer rec.end(runSpan)

	t0 := now()
	id := rec.begin("core.new", runSpan, op)
	strat, err := spec.Strategy.Build()
	if err != nil {
		return nil, err
	}
	exp, err := core.New(spec.Config, strat)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	o.newS = since(t0)

	t0 = now()
	id = rec.begin("core.run", runSpan, op)
	res, err := exp.Run()
	rec.end(id)
	if err != nil {
		return nil, err
	}
	o.runS = since(t0)

	t0 = now()
	id = rec.begin("core.encode", runSpan, op)
	o.canonical, err = res.CanonicalBytes()
	rec.end(id)
	if err != nil {
		return nil, err
	}
	o.encodeS = since(t0)

	o.res = res
	o.endS = float64(res.End)
	o.events = res.EventsProcessed
	for _, kind := range comm.Kinds() {
		st := res.Comm[kind.String()]
		o.sent += st.MessagesSent
		o.delivered += st.MessagesDelivered
		o.bytes += st.BytesDelivered
	}
	o.trainTasks = res.Metrics.Counter(metrics.CounterTrainTasks)
	if res.Trace != nil {
		for _, s := range res.Trace.Spans {
			switch s.Kind {
			case trace.KindEval:
				o.evals++
			case trace.KindTick:
				o.ticks++
			}
		}
	}
	rec.count(runSpan, "events", float64(o.events))
	rec.count(runSpan, "transfers", float64(o.sent))
	return o, nil
}

// simWorkload runs a manifest in-process on one goroutine, one seed's
// runs per operation.
type simWorkload struct {
	e        *benchEnv
	manifest manifestFunc
	ops      []simOp
	// store is the scratch store verify publishes every result into.
	store *campaign.Store
}

// simOp is the runs of one operation.
type simOp struct {
	index int
	obs   []*runObs
}

func newSimWorkload(e *benchEnv, m manifestFunc) *simWorkload {
	return &simWorkload{e: e, manifest: m}
}

func (w *simWorkload) service() bool { return false }

// warmupSeed is the seed of the untimed warm-up runs. It is fixed, so that
// setup_s tells one machine or commit from another and not one --seed from
// the next; every timed operation takes its seeds from --seed.
const warmupSeed = 1

// setup expands a one-seed manifest and executes untimed warm-up runs —
// its first and last spec, so both strategies — growing the heap and
// touching every code path before timing. The fleet workload warms up on
// the preset's own fleet size: a fleet-scale warm-up would cost as much as
// a timed operation.
func (w *simWorkload) setup(context.Context) error {
	m := w.manifest(w.e.sz, warmupSeed, 1)
	m.Overrides = nil
	specs, err := m.Expand()
	if err != nil {
		return err
	}
	for _, spec := range []campaign.RunSpec{specs[0], specs[len(specs)-1]} {
		if _, err := executeRun(spec, nil, 0, 0, false); err != nil {
			return err
		}
	}
	return nil
}

func (w *simWorkload) op(_ context.Context, i int, rec *recorder) (opResult, error) {
	// Collect the previous operation's garbage before timing: a library
	// or CLI user runs an experiment in a fresh process, so an operation
	// must not inherit the heap — and the GC pacing — of the one before.
	runtime.GC()
	cpu0 := selfCPU()
	t0 := now()
	opSpan := rec.begin("op", 0, i)
	id := rec.begin("campaign.manifest.expand", opSpan, i)
	// Traced operations rerun the seeds of the untraced ones, so the two
	// halves of a traced run differ by the tracing alone.
	specs, err := w.manifest(w.e.sz, w.e.seed+uint64(i%tracedOpBase), 1).Expand()
	rec.end(id)
	if err != nil {
		return opResult{}, err
	}
	var obs []*runObs
	for _, spec := range specs {
		o, err := executeRun(spec, rec, opSpan, i, rec != nil)
		if err != nil {
			w.e.tally.fail("run %s: %v", spec.Name, err)
			continue
		}
		w.e.tally.ok(1)
		obs = append(obs, o)
	}
	rec.end(opSpan)
	w.ops = append(w.ops, simOp{index: i, obs: obs})
	return opResult{wall: since(t0), runs: len(specs), cpuS: selfCPU() - cpu0}, nil
}

func (w *simWorkload) peakRSSMB() float64 {
	mb, _ := peakRSSMB(0)
	return mb
}

func (w *simWorkload) teardown() {}

// verify, once every operation has run, publishes every result into a
// scratch store (outside the timed region) and checks the store serves
// back exactly the bytes the run encoded, individually and through the
// merged artifact.
func (w *simWorkload) verify(_ context.Context, _ *recorder, _ int, last bool) error {
	if !last {
		return nil // in-process: every instance is this process
	}
	dir, err := w.e.scratch("simstore")
	if err != nil {
		return err
	}
	store, err := campaign.OpenStore(dir)
	if err != nil {
		return err
	}
	w.store = store
	var simS float64
	var events uint64
	var transfers int64
	for _, op := range w.ops {
		for _, o := range op.obs {
			if o.key, err = o.spec.Key(); err != nil {
				return err
			}
			if err := store.Put(o.key, o.spec, o.res); err != nil {
				w.e.tally.fail("store put %s: %v", o.spec.Name, err)
				continue
			}
			checkStored(w.e.tally, store, o)
		}
	}
	// Exact-repeat statistics come from the first operation only: its
	// inputs depend on the seed alone, never on how many operations the
	// machine fitted into the window.
	var firstSpecs []campaign.RunSpec
	for _, o := range w.ops[0].obs {
		simS += o.endS
		events += o.events
		transfers += o.sent
		firstSpecs = append(firstSpecs, o.spec)
	}
	merged, err := campaign.MergedCanonicalBytes(firstSpecs, store)
	if err != nil || len(merged) == 0 {
		w.e.tally.fail("merge: %v (%d bytes)", err, len(merged))
	} else {
		w.e.tally.ok(1)
	}
	w.e.facts["sim.events"] = fmt.Sprint(events)
	w.e.facts["comm.transfers"] = fmt.Sprint(transfers)
	w.e.facts["sum_end_s"] = fmt.Sprint(simS)
	w.e.facts["merged_sha256"] = sha256Hex(merged)
	w.e.facts["merged_seeds"] = fmt.Sprintf("%d..%d", w.e.seed, w.e.seed)
	// The service path submits Fig4Seeds seeds per campaign; when this
	// run covered as many, hash the same manifest's merge so the two
	// paths can be compared byte for byte.
	if n := w.e.sz.Fig4Seeds; n > 1 && len(w.ops) >= n && w.ops[n-1].index == n-1 {
		specs, err := w.manifest(w.e.sz, w.e.seed, n).Expand()
		if err != nil {
			return err
		}
		if merged, err := campaign.MergedCanonicalBytes(specs, store); err == nil {
			w.e.facts["merged_sha256"] = sha256Hex(merged)
			w.e.facts["merged_seeds"] = fmt.Sprintf("%d..%d", w.e.seed, w.e.seed+uint64(n)-1)
		}
	}
	return nil
}

// checkStored counts one run's byte comparison: the store must hand back
// the canonical bytes the run produced.
func checkStored(t *tally, store *campaign.Store, o *runObs) {
	got, err := store.CanonicalBytes(o.key)
	if err != nil || !bytes.Equal(got, o.canonical) {
		t.fail("stored bytes of %s differ from the run's (%v)", o.spec.Name, err)
		return
	}
	t.ok(1)
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// layers emits the per-layer budget of the traced operations.
func (w *simWorkload) layers(_ context.Context, rec *recorder, traced *measurement) error {
	// Counts are reported for the first traced operation; see verify.
	var obs, counted []*runObs
	for _, op := range w.ops {
		if op.index < traced.firstOp {
			continue
		}
		if counted == nil {
			counted = op.obs
		}
		obs = append(obs, op.obs...)
	}
	if len(obs) == 0 {
		return fmt.Errorf("no traced run completed")
	}
	emitSimLayers(w.e, rec, obs, counted)
	specs := make([]campaign.RunSpec, len(counted))
	for i, o := range counted {
		specs[i] = o.spec
	}
	emitMergeLayer(w.e, rec, specs, w.store)
	emitManifestLayer(w.e, rec, w.manifest(w.e.sz, w.e.seed, 1))
	return emitStoreLayers(w.e, rec, obs)
}

// emitSimLayers attributes the host time of in-process runs to the layers
// below core. obs are all traced runs (times are medians or per-run means
// over them); counted are the runs whose counts are reported.
func emitSimLayers(e *benchEnv, rec *recorder, obs, counted []*runObs) {
	var newS, runS, encS, simS []float64
	var trainTasks, evals, ticks, events, sent, delivered, nbytes float64
	for _, o := range obs {
		newS = append(newS, o.newS)
		runS = append(runS, o.runS)
		encS = append(encS, o.encodeS)
		simS = append(simS, o.endS)
		trainTasks += o.trainTasks
		evals += float64(o.evals)
		ticks += float64(o.ticks)
		events += float64(o.events)
	}
	n := float64(len(obs))
	var cTrain, cEvals, cTicks, cEvents float64
	for _, o := range counted {
		cTrain += o.trainTasks
		cEvals += float64(o.evals)
		cTicks += float64(o.ticks)
		cEvents += float64(o.events)
		sent += float64(o.sent)
		delivered += float64(o.delivered)
		nbytes += float64(o.bytes)
	}
	e.emit("sim.events", cEvents)
	e.emit("ml.train_tasks", cTrain)
	e.emit("ml.evals", cEvals)
	e.emit("mobility.ticks", cTicks)
	e.emit("comm.transfers", sent)
	e.emit("comm.bytes", nbytes)
	if sent > 0 {
		e.emit("comm.delivered_share", delivered/sent)
	}
	e.emit("core.new_s_p50", median(newS))
	e.emit("core.run_s_p50", median(runS))
	e.emit("core.encode_s_p50", median(encS))
	e.emit("core.new_share", sum(newS)/(sum(newS)+sum(runS)))
	e.emit("core.simsec_per_wallsec", sum(simS)/(sum(newS)+sum(runS)+sum(encS)))

	// Replay each layer's public functions on the first run's
	// configuration, then scale unit costs by the per-run counts.
	u := replaySimLayers(rec, obs[0].spec.Config)
	e.emit("roadnet.generate_s", u.roadnetS)
	e.emit("mobility.generate_s", u.mobilityS)
	e.emit("dataset.generate_s", u.datasetS)
	e.emit("mobility.tick_s", u.tickS)
	e.emit("mobility.pairs_per_tick", u.pairsPerTick)
	e.emit("ml.train_task_s_p50", u.trainTaskS)
	e.emit("ml.eval_s_p50", u.evalS)
	e.emit("ml.fedavg_s", u.fedavgS)
	e.emit("sim.event_ns", u.eventNS)
	trainS := trainTasks / n * u.trainTaskS
	evalS := evals / n * u.evalS
	e.emit("ml.train_s", trainS)
	e.emit("ml.eval_total_s", evalS)
	attributed := u.roadnetS + u.mobilityS + u.datasetS + trainS + evalS +
		ticks/n*u.tickS + events/n*u.eventNS/1e9
	e.emit("core.unattributed_s", mean(newS)+mean(runS)-attributed)
}

// unitCosts are single-layer costs measured by replay.
type unitCosts struct {
	roadnetS, mobilityS, datasetS float64
	tickS, pairsPerTick           float64
	trainTaskS, evalS, fedavgS    float64
	eventNS                       float64
}

// replaySimLayers calls each layer's public entry points directly, with
// the run's own configuration and the fork labels core.New uses, so the
// inputs are the ones the run saw. A failing replay leaves its cost at 0;
// the traced run itself already proved the configuration valid.
func replaySimLayers(rec *recorder, cfg core.Config) unitCosts {
	var u unitCosts
	root := sim.NewRNG(cfg.Seed)
	root.Fork("strategy")
	trainRNG := root.Fork("train")
	replay := rec.begin("replay", 0, -1)
	defer rec.end(replay)
	timed := func(name string, fn func()) float64 {
		id := rec.begin(name, replay, -1)
		t0 := now()
		fn()
		d := since(t0)
		rec.end(id)
		return d
	}

	var graph *roadnet.Graph
	var traces *mobility.TraceSet
	var err error
	u.roadnetS = timed("roadnet.generate", func() { graph, err = roadnet.Generate(cfg.Grid, root.Fork("roadnet")) })
	if err != nil {
		return u
	}
	u.mobilityS = timed("mobility.generate", func() { traces, err = mobility.Generate(cfg.Fleet, graph, root.Fork("mobility")) })
	if err != nil {
		return u
	}

	if cfg.RSUCount > 0 {
		root.Fork("rsu")
	}
	root.Fork("comm")

	vehicles := traces.NumVehicles()
	var parts [][]ml.Example
	var testSet []ml.Example
	u.datasetS = timed("dataset.generate", func() {
		var gen *dataset.Generator
		if gen, err = dataset.NewGenerator(cfg.Data, root.Fork("data-proto")); err != nil {
			return
		}
		draw := root.Fork("data-draw")
		var pool []ml.Example
		if pool, err = gen.Balanced(vehicles*cfg.Partition.PerAgent, draw); err != nil {
			return
		}
		if parts, err = dataset.Partition(pool, vehicles, cfg.Partition, root.Fork("partition")); err != nil {
			return
		}
		testSet, err = gen.Balanced(cfg.TestSamples, draw)
	})
	if err != nil {
		return u
	}

	// The fleet scan as a fresh index sees it, sampled across the horizon.
	if replayer, rerr := mobility.NewReplayer(traces); rerr == nil {
		if idx, ierr := mobility.NewSpatialIndex(cfg.Comm.V2X.RangeM); ierr == nil {
			tracker := mobility.NewEncounterTracker()
			var pos []roadnet.Point
			var on []bool
			var tickS []float64
			var pairs float64
			horizon := float64(traces.Horizon)
			if cfg.Horizon > 0 && float64(cfg.Horizon) < horizon {
				horizon = float64(cfg.Horizon)
			}
			const scans = 64
			for k := 0; k < scans; k++ {
				t := sim.Time(horizon * float64(k) / scans)
				tickS = append(tickS, timed("mobility.tick", func() {
					pos, on = replayer.Positions(t, pos, on)
					if idx.Rebuild(pos, on) != nil {
						return
					}
					ps := idx.PairsWithin(cfg.Comm.V2X.RangeM)
					pairs += float64(len(ps))
					tracker.Update(ps)
				}))
			}
			u.tickS, u.pairsPerTick = median(tickS), pairs/scans
		}
	}

	net, err := ml.NewNetwork(cfg.Model, root.Fork("init-weights"))
	if err != nil {
		return u
	}
	global := net.Snapshot()
	var trainS, evalS []float64
	var locals []*ml.Snapshot
	var weights []float64
	for v := 0; v < min(5, len(parts)); v++ {
		trainS = append(trainS, timed("ml.train_task", func() {
			local, lerr := ml.LoadSnapshot(global)
			if lerr != nil {
				return
			}
			if _, lerr = local.Train(parts[v], cfg.Train, trainRNG.Fork("task")); lerr == nil {
				locals = append(locals, local.Snapshot())
				weights = append(weights, float64(len(parts[v])))
			}
		}))
		evalS = append(evalS, timed("ml.eval", func() {
			if loaded, lerr := ml.LoadSnapshot(global); lerr == nil {
				_, _, _ = loaded.Evaluate(testSet) // cost only; accuracy is the run's business
			}
		}))
	}
	u.trainTaskS, u.evalS = median(trainS), median(evalS)
	if len(locals) > 0 {
		u.fedavgS = timed("ml.fedavg", func() { _, _ = ml.FedAvg(locals, weights) }) // cost only
	}

	// Schedule+Step on a standalone engine holding about one pending
	// event per agent — the run's own pending depth is not exported.
	u.eventNS = timed("sim.event", func() { churnEngine(vehicles+cfg.RSUCount+1, 200000) }) * 1e9 / 200000
	return u
}

// churnEngine keeps depth events pending and executes steps of them, each
// rescheduling itself — the steady state of a running experiment's queue.
func churnEngine(depth, steps int) {
	eng := sim.NewEngine()
	var tick func()
	tick = func() { _, _ = eng.After(sim.Duration(depth), tick) } // cannot fail: the delay is positive and finite
	for i := 0; i < depth; i++ {
		_, _ = eng.Schedule(sim.Time(i), tick) // cannot fail: the instant is non-negative and finite
	}
	for i := 0; i < steps && eng.Step(); i++ {
	}
}
