package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"roadrunner/internal/campaign"
)

// The replays below time single layers of the campaign stack through their
// public functions, on scratch state in the run's workdir — the same
// filesystem the workload's own store lives on.

// emitStoreLayers replays store Put, Get and CanonicalBytes, and the
// journal's fsync'd RecordRun, with results the workload produced.
func emitStoreLayers(e *benchEnv, rec *recorder, obs []*runObs) error {
	dir, err := e.scratch("layerstore")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	store, err := campaign.OpenStore(dir)
	if err != nil {
		return err
	}
	obs = obs[:min(len(obs), 32)]
	replay := rec.begin("replay.store", 0, -1)
	defer rec.end(replay)
	var putS, getS, bytesS, diskBytes []float64
	for _, o := range obs {
		id := rec.begin("campaign.store.put", replay, -1)
		t0 := now()
		err := store.Put(o.key, o.spec, o.res)
		putS = append(putS, since(t0))
		rec.end(id)
		if err != nil {
			return err
		}
		diskBytes = append(diskBytes, dirBytes(filepath.Join(dir, o.key)))
	}
	for _, o := range obs {
		id := rec.begin("campaign.store.get", replay, -1)
		t0 := now()
		res, _ := store.Get(o.key)
		getS = append(getS, since(t0))
		rec.end(id)
		if res == nil {
			return fmt.Errorf("store replay: %s not served back", o.key)
		}
		id = rec.begin("campaign.store.canonical_bytes", replay, -1)
		t0 = now()
		_, err := store.CanonicalBytes(o.key)
		bytesS = append(bytesS, since(t0))
		rec.end(id)
		if err != nil {
			return err
		}
	}
	e.emit("campaign.store.put_s_p50", median(putS))
	e.emit("campaign.store.get_s_p50", median(getS))
	e.emit("campaign.store.canonical_bytes_s_p50", median(bytesS))
	e.emit("campaign.store.bytes_per_run", mean(diskBytes))

	// One journal record per terminal run, each fsync'd.
	m := campaign.Manifest{Name: "bench-journal", Env: campaign.EnvTiny, Strategies: twoStrategies[:1], Seeds: []uint64{e.seed}}
	c, err := campaign.NewCampaign("bench-journal", m)
	if err != nil {
		return err
	}
	j, err := store.OpenJournal(c)
	if err != nil {
		return err
	}
	defer j.Close()
	var recordS []float64
	for _, o := range obs {
		id := rec.begin("campaign.journal.record", replay, -1)
		t0 := now()
		j.RecordRun(campaign.RunStatus{Name: o.spec.Name, Key: o.key, State: campaign.RunCached, EndS: o.endS})
		recordS = append(recordS, since(t0))
		rec.end(id)
	}
	e.emit("campaign.journal.record_s_p50", median(recordS))
	return nil
}

func dirBytes(dir string) float64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total float64
	for _, ent := range entries {
		if info, err := ent.Info(); err == nil {
			total += float64(info.Size())
		}
	}
	return total
}

// emitMergeLayer times rendering the merged artifact of specs from store.
func emitMergeLayer(e *benchEnv, rec *recorder, specs []campaign.RunSpec, store *campaign.Store) {
	id := rec.begin("campaign.merge.merge", 0, -1)
	t0 := now()
	merged, err := campaign.MergedCanonicalBytes(specs, store)
	d := since(t0)
	rec.end(id)
	if err != nil {
		return
	}
	e.emit("campaign.merge.merge_s", d)
	e.emit("campaign.merge.bytes", float64(len(merged)))
}

// emitManifestLayer times NewCampaign: expansion plus key hashing.
func emitManifestLayer(e *benchEnv, rec *recorder, m campaign.Manifest) {
	var ds []float64
	for k := 0; k < 3; k++ {
		id := rec.begin("campaign.manifest.expand", 0, -1)
		t0 := now()
		_, err := campaign.NewCampaign("bench-expand", m)
		ds = append(ds, since(t0))
		rec.end(id)
		if err != nil {
			return
		}
	}
	e.emit("campaign.manifest.expand_s", median(ds))
}

// emitQueueLogLayers reads the queue log the coordinator wrote and reports
// how many fsync'd appends each run cost and how many refs an append
// carried. It returns the mean claim batch for the verb replay.
func emitQueueLogLayers(e *benchEnv, logPath string) (int, error) {
	recs, err := campaign.ReadQueueLog(logPath)
	if err != nil {
		return 0, err
	}
	var appends, entries, enqueued, claimRecs, claimed float64
	for _, r := range recs {
		if r.Op == "gen" {
			continue
		}
		n := float64(max(len(r.Batch), 1))
		appends++
		entries += n
		switch r.Op {
		case "enqueue", "enqueue-batch":
			enqueued += n
		case "claim", "claim-batch":
			claimRecs++
			claimed += n
		}
	}
	if enqueued > 0 {
		e.emit("campaign.queue.appends_per_run", appends/enqueued)
	}
	if appends > 0 {
		e.emit("campaign.queue.mean_batch", entries/appends)
	}
	batch := 1
	if claimRecs > 0 {
		e.emit("cluster.coordinator.claims_per_request", claimed/claimRecs)
		batch = max(1, int(math.Round(claimed/claimRecs)))
	}
	return batch, nil
}

// emitQueueVerbLayers replays the four batch verbs on a scratch queue:
// the whole campaign enqueued at once, as the coordinator does, then
// claimed, started and completed in batches of the observed size.
func emitQueueVerbLayers(e *benchEnv, rec *recorder, c *campaign.Campaign, batch int) error {
	dir, err := e.scratch("layerqueue")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	q, err := campaign.OpenQueueWithOptions(filepath.Join(dir, "queue.jsonl"), campaign.QueueOptions{})
	if err != nil {
		return err
	}
	defer func() { _ = q.Close() }()
	items := queueItems(c)
	replay := rec.begin("replay.queue", 0, -1)
	defer rec.end(replay)
	spent := make(map[string]float64) // seconds per verb
	timed := func(verb string, fn func() error) error {
		id := rec.begin("campaign.queue."+verb, replay, -1)
		t0 := now()
		err := fn()
		spent[verb] += since(t0)
		rec.end(id)
		return err
	}
	if err := timed("enqueue", func() error { return q.EnqueueBatch(items) }); err != nil {
		return err
	}
	for lo := 0; lo < len(items); lo += batch {
		if err := driveChunk(q, items[lo:min(lo+batch, len(items))], timed); err != nil {
			return err
		}
	}
	perRef := 1e6 / float64(len(items))
	for _, verb := range []string{"enqueue", "claim", "start", "complete"} {
		e.emit("campaign.queue."+verb+"_us_per_ref", spent[verb]*perRef)
	}
	return nil
}

// queueItems builds the queue items the coordinator would enqueue for c.
func queueItems(c *campaign.Campaign) []campaign.QueueItem {
	specs, keys := c.Specs(), c.Keys()
	items := make([]campaign.QueueItem, len(specs))
	for i := range specs {
		items[i] = campaign.QueueItem{Ref: c.ID() + "/" + keys[i], Key: keys[i], Spec: specs[i]}
	}
	return items
}

// emitBootLayer times exec → healthy on an empty store: what a restart
// costs before any queue replay.
func emitBootLayer(ctx context.Context, e *benchEnv, rec *recorder) error {
	var boots []float64
	for k := 0; k < 3; k++ {
		dir, err := e.scratch("boot")
		if err != nil {
			return err
		}
		id := rec.begin("roadrunnerd.boot", 0, -1)
		t0 := now()
		svc, err := startCoordinator(ctx, e.bin, dir, filepath.Join(dir, "store"), e.tally)
		boots = append(boots, since(t0))
		rec.end(id)
		svc.stop()
		_ = os.RemoveAll(dir)
		if err != nil {
			return err
		}
	}
	e.emit("roadrunnerd.boot_s_p50", median(boots))
	return nil
}

// schedulerBaseline runs specs through the in-process scheduler with one
// worker and a fresh store — the single-threaded, no-cluster path — and
// returns its runs per second.
func schedulerBaseline(e *benchEnv, rec *recorder, specs []campaign.RunSpec) (float64, error) {
	dir, err := e.scratch("scheduler")
	if err != nil {
		return 0, err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	store, err := campaign.OpenStore(dir)
	if err != nil {
		return 0, err
	}
	tasks := make([]campaign.Task, len(specs))
	for i, spec := range specs {
		if tasks[i], err = campaign.TaskForSpec(spec); err != nil {
			return 0, err
		}
	}
	sched := campaign.NewScheduler(campaign.Options{Workers: 1, Store: store})
	id := rec.begin("campaign.scheduler", 0, -1)
	t0 := now()
	results := sched.Execute(tasks)
	d := since(t0)
	rec.end(id)
	for _, r := range results {
		if r.Err != nil {
			return 0, fmt.Errorf("scheduler baseline: %s: %w", r.Name, r.Err)
		}
	}
	return float64(len(specs)) / d, nil
}
