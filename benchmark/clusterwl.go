package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"

	"roadrunner/internal/campaign"
	"roadrunner/internal/sim"
)

type clusterKind int

const (
	// coldKind submits service-bound campaigns of tiny runs, each on seeds
	// the store has never seen.
	coldKind clusterKind = iota
	// warmKind resubmits one already-stored campaign over and over.
	warmKind
	// fig4Kind submits the Figure-4 manifest, cold.
	fig4Kind
)

// clusterWorkload drives campaigns through the real coordinator and two
// worker processes over HTTP.
type clusterWorkload struct {
	e    *benchEnv
	kind clusterKind
	dir  string
	svc  *service
	fill *campaignRun // warm only: the cold campaign that filled the store
	ops  []clusterOp
	// sample holds the run keys re-executed in-process by verify.
	sample []*runObs
}

// clusterOp is one campaign with the per-process CPU it cost.
type clusterOp struct {
	index          int
	manifest       campaign.Manifest
	run            *campaignRun
	coCPU, workCPU float64
}

func (w *clusterWorkload) service() bool { return true }

// workers is the number of worker processes. The Figure-4 campaigns run on
// two, to show what the cluster gains on real work. The tiny-run
// workloads run on one: with two, the default round-robin policy defers
// whichever worker is ahead and a deferred worker sleeps its 200 ms idle
// poll, which makes the throughput of 4 ms runs swing between 17 and 74
// runs/s from one campaign to the next on the same commit — no bound
// could hold on that (README, first baseline observations).
func (w *clusterWorkload) workers() int {
	if w.kind == fig4Kind {
		return 2
	}
	return 1
}

// manifest returns the campaign operation i submits.
func (w *clusterWorkload) manifest(i int) campaign.Manifest {
	sz := w.e.sz
	switch w.kind {
	case warmKind:
		return tinyManifest(sz, w.e.seed, sz.WarmSeeds)
	case fig4Kind:
		return fig4Manifest(sz, w.e.seed+uint64(i*sz.Fig4Seeds), sz.Fig4Seeds)
	default:
		return tinyManifest(sz, w.e.seed+uint64(i*sz.ColdSeeds), sz.ColdSeeds)
	}
}

// setup spawns the service on a fresh store and, for the warm workload,
// fills the store by running the campaign once.
func (w *clusterWorkload) setup(ctx context.Context) error {
	var err error
	if w.dir, err = w.e.scratch("cluster"); err != nil {
		return err
	}
	if w.svc, err = startService(ctx, w.e.bin, w.dir, w.workers(), w.e.tally); err != nil {
		return err
	}
	w.ops, w.fill = nil, nil
	if w.kind == warmKind {
		if w.fill, err = w.svc.runCampaign(ctx, w.manifest(0), nil, -1); err != nil {
			return err
		}
		w.tallyRuns(w.fill)
	}
	return nil
}

func (w *clusterWorkload) teardown() {
	w.svc.stop()
	w.svc = nil
	if w.dir != "" {
		_ = os.RemoveAll(w.dir)
	}
}

func (w *clusterWorkload) peakRSSMB() float64 { return w.svc.peakRSSMB() }

// tallyRuns counts a finished campaign's runs: failed ones as failures.
func (w *clusterWorkload) tallyRuns(run *campaignRun) {
	w.e.tally.ok(run.status.Total - run.status.Failed)
	for i := 0; i < run.status.Failed; i++ {
		w.e.tally.fail("campaign %s: run failed", run.id)
	}
	if len(run.merged) == 0 {
		w.e.tally.fail("campaign %s: empty merged result", run.id)
	}
}

func (w *clusterWorkload) op(ctx context.Context, i int, rec *recorder) (opResult, error) {
	op := clusterOp{index: i, manifest: w.manifest(i)}
	co0, wk0 := w.procCPU()
	run, err := w.svc.runCampaign(ctx, op.manifest, rec, i)
	if err != nil {
		return opResult{}, err
	}
	co1, wk1 := w.procCPU()
	op.run, op.coCPU, op.workCPU = run, co1-co0, wk1-wk0
	w.tallyRuns(run)
	if w.kind == warmKind {
		// Every warm fetch must be the cold fill's bytes, and nothing
		// may have executed to produce them.
		if !bytes.Equal(run.merged, w.fill.merged) {
			w.e.tally.fail("campaign %s: merged bytes differ from the cold fill's", run.id)
		} else {
			w.e.tally.ok(1)
		}
		if run.status.Completed != 0 {
			w.e.tally.fail("campaign %s: %d runs executed on a warm store", run.id, run.status.Completed)
		}
	}
	w.ops = append(w.ops, op)
	return opResult{wall: run.wall, runs: run.status.Total, cpuS: op.coCPU + op.workCPU}, nil
}

// procCPU reads the coordinator's and the workers' CPU separately.
func (w *clusterWorkload) procCPU() (co, workers float64) {
	co, _ = procCPU(w.svc.co.pid())
	for _, c := range w.svc.workers {
		v, _ := procCPU(c.pid())
		workers += v
	}
	return co, workers
}

// verify re-executes a seeded sample of the first campaign's run keys
// in-process and compares each byte for byte with what the service
// stored. The re-executions double as the traced run's view of the
// layers below core.
func (w *clusterWorkload) verify(ctx context.Context, rec *recorder, instance int, _ bool) error {
	if instance > 0 {
		// The sample is drawn from the first instance's first campaign:
		// its seeds depend on --seed alone, so the printed hashes repeat
		// exactly. Later instances are still checked campaign by
		// campaign in op.
		return nil
	}
	first := w.ops[0]
	c, err := campaign.NewCampaign("bench-verify", first.manifest)
	if err != nil {
		return err
	}
	specs, keys := c.Specs(), c.Keys()
	n := w.e.sz.Sample
	if w.kind == fig4Kind {
		n = w.e.sz.SampleFig4
	}
	n = min(n, len(specs))
	w.sample = nil
	checkSpan := rec.begin("verify", 0, -1)
	defer rec.end(checkSpan)
	for _, idx := range sim.NewRNG(w.e.seed).Perm(len(specs))[:n] {
		o, err := executeRun(specs[idx], rec, checkSpan, -1, rec != nil)
		if err != nil {
			w.e.tally.fail("re-execute %s: %v", specs[idx].Name, err)
			continue
		}
		o.key = keys[idx]
		w.sample = append(w.sample, o)
		served, err := w.svc.request(ctx, http.MethodGet, "/v1/runs/"+o.key, nil)
		if err != nil {
			continue // already tallied as a failed request
		}
		if !bytes.Equal(served, o.canonical) {
			w.e.tally.fail("run %s: served bytes differ from in-process execution", specs[idx].Name)
		} else {
			w.e.tally.ok(1)
		}
	}
	w.e.facts["merged_sha256"] = sha256Hex(first.run.merged)
	w.e.facts["merged_seeds"] = fmt.Sprintf("%d..%d", first.manifest.Seeds[0], first.manifest.Seeds[len(first.manifest.Seeds)-1])
	var simS float64
	for _, rs := range first.run.status.Runs {
		simS += rs.EndS
	}
	w.e.facts["sum_end_s"] = fmt.Sprint(simS)
	return nil
}

func (w *clusterWorkload) layers(ctx context.Context, rec *recorder, traced *measurement) error {
	e := w.e
	var ops []clusterOp
	for _, op := range w.ops {
		if op.index >= traced.firstOp {
			ops = append(ops, op)
		}
	}
	if len(w.sample) == 0 {
		return fmt.Errorf("no sampled run re-executed")
	}
	// Workers executed nothing on the warm workload, so the layers below
	// core get no time there; the sample only feeds the store replays.
	if w.kind != warmKind {
		emitSimLayers(e, rec, w.sample, w.sample)
	}
	store, err := campaign.OpenStore(w.svc.storeDir)
	if err != nil {
		return err
	}
	first := ops[0]
	c, err := campaign.NewCampaign("bench-layers", first.manifest)
	if err != nil {
		return err
	}
	if err := emitStoreLayers(e, rec, w.sample); err != nil {
		return err
	}
	emitMergeLayer(e, rec, c.Specs(), store)
	emitManifestLayer(e, rec, first.manifest)
	if _, runs, err := campaign.ReadJournal(store.JournalPath(first.run.id)); err == nil {
		e.emit("campaign.journal.records", float64(len(runs)))
	}
	batch, err := emitQueueLogLayers(e, store.QueueLogPath())
	if err != nil {
		return err
	}
	if err := emitQueueVerbLayers(e, rec, c, batch); err != nil {
		return err
	}

	// HTTP, as the client saw it.
	e.emit("cluster.http.submit_s", median(rec.durations("cluster.http.submit")))
	e.emit("cluster.http.status_s_p50", median(rec.durations("cluster.http.status")))
	e.emit("cluster.http.status_bytes", mean(rec.counts("cluster.http.status", "bytes")))
	e.emit("cluster.http.result_s", median(rec.durations("cluster.http.result")))
	e.emit("cluster.http.requests", float64(len(rec.durations("cluster.http.status"))+2*len(ops))/float64(len(ops)))

	// Coordinator and workers, from /proc, the fleet view, the event
	// stream and the RunMeta the workers wrote.
	var coCPU, workCPU, makespan, busy, executed float64
	var firstResults []float64
	events := map[string]float64{}
	for _, op := range ops {
		coCPU += op.coCPU
		workCPU += op.workCPU
		makespan += op.run.wall
		if op.run.firstResultS > 0 {
			firstResults = append(firstResults, op.run.firstResultS)
		}
		for _, kind := range []string{"lease-expired", "steal", "stale-complete"} {
			events[kind] += float64(op.run.eventCounts[kind])
		}
		for _, rs := range op.run.status.Runs {
			if rs.State != campaign.RunDone {
				continue // served from the store: no worker time
			}
			executed++
			if meta, err := store.Meta(rs.Key); err == nil {
				busy += float64(meta.WallNS) / 1e9
			}
		}
	}
	e.emit("cluster.coordinator.cpu_s", coCPU)
	if coCPU+workCPU > 0 {
		e.emit("cluster.coordinator.cpu_share", coCPU/(coCPU+workCPU))
	}
	e.emit("cluster.coordinator.first_result_s", median(firstResults))
	e.emit("cluster.coordinator.lease_expired", events["lease-expired"])
	e.emit("cluster.coordinator.steals", events["steal"])
	e.emit("cluster.coordinator.stale_completes", events["stale-complete"])
	if nodes, err := w.svc.nodes(); err == nil && len(nodes) > 0 {
		lo, hi := nodes[0].Executed, nodes[0].Executed
		for _, n := range nodes {
			lo, hi = min(lo, n.Executed), max(hi, n.Executed)
		}
		if lo > 0 {
			e.emit("cluster.coordinator.node_skew", float64(hi)/float64(lo))
		}
	}
	e.emit("roadrunnerd.worker.cpu_s", workCPU)
	e.emit("roadrunnerd.worker.executed", executed)
	nw := float64(w.workers())
	e.emit("roadrunnerd.worker.busy_share", busy/(nw*makespan))
	e.emit("roadrunnerd.worker.idle_s", nw*makespan-busy)

	if err := emitBootLayer(ctx, e, rec); err != nil {
		return err
	}
	if w.kind != warmKind {
		n := e.sz.SchedulerRuns
		if w.kind == fig4Kind {
			n = e.sz.SchedulerRunsFig4
		}
		rps, err := schedulerBaseline(e, rec, c.Specs()[:min(n, len(c.Specs()))])
		if err != nil {
			return err
		}
		wall, _, runs := traced.totals()
		e.emit("campaign.scheduler.runs_per_s", rps)
		e.emit("cluster.overhead_share", 1-(float64(runs)/wall)/(nw*rps))
	}
	return nil
}
