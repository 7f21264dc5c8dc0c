package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"roadrunner/internal/campaign"
)

// restartWorkload measures an operator's crash-recovery time: set-up
// builds a mid-campaign queue state on disk with the public batch verbs,
// and every operation execs a coordinator on it and waits until it
// answers.
type restartWorkload struct {
	e        *benchEnv
	dir      string
	storeDir string
	logPath  string
	snapPath string
	items    []campaign.QueueItem
	buildS   float64
	expandS  float64
	bootCPU  []float64
	rssMB    float64
}

func (w *restartWorkload) service() bool { return true }

// manifest yields one tiny run per seed, so the queue holds real specs
// under real content addresses.
func (w *restartWorkload) manifest() campaign.Manifest {
	return campaign.Manifest{
		Name: "bench-restart", Env: campaign.EnvTiny, Rounds: 2,
		Strategies: twoStrategies[:1], Seeds: seedList(w.e.seed, w.e.sz.RestartRefs),
	}
}

func (w *restartWorkload) setup(context.Context) error {
	var err error
	if w.dir, err = w.e.scratch("restart"); err != nil {
		return err
	}
	w.storeDir = filepath.Join(w.dir, "store")
	store, err := campaign.OpenStore(w.storeDir)
	if err != nil {
		return err
	}
	w.logPath, w.snapPath = store.QueueLogPath(), store.QueueSnapshotPath()
	t0 := now()
	c, err := campaign.NewCampaign("c0001-bench", w.manifest())
	if err != nil {
		return err
	}
	w.expandS = since(t0)
	w.items = queueItems(c)
	w.bootCPU = nil
	t0 = now()
	err = buildQueueState(w.logPath, w.items, w.e.sz.RestartDriven, w.e.sz.RestartBatch, campaign.QueueOptions{})
	w.buildS = since(t0)
	return err
}

// buildQueueState enqueues items and drives the first driven of them
// through claim, start and complete, all in batches of batch.
func buildQueueState(logPath string, items []campaign.QueueItem, driven, batch int, opts campaign.QueueOptions) error {
	q, err := campaign.OpenQueueWithOptions(logPath, opts)
	if err != nil {
		return err
	}
	defer func() { _ = q.Close() }()
	for lo := 0; lo < len(items); lo += batch {
		if err := q.EnqueueBatch(items[lo:min(lo+batch, len(items))]); err != nil {
			return err
		}
	}
	untimed := func(_ string, verb func() error) error { return verb() }
	for lo := 0; lo < driven; lo += batch {
		if err := driveChunk(q, items[lo:min(lo+batch, driven)], untimed); err != nil {
			return err
		}
	}
	return nil
}

// driveChunk takes one batch of pending items through the three lease
// verbs — claim, start, complete — handing each to call under its name,
// so a replay can time the verbs apart.
func driveChunk(q *campaign.Queue, chunk []campaign.QueueItem, call func(verb string, fn func() error) error) error {
	refs := make([]string, len(chunk))
	for i, it := range chunk {
		refs[i] = it.Ref
	}
	var grants []campaign.ClaimGrant
	err := call("claim", func() (err error) {
		grants, err = q.ClaimBatch(refs, "bench-node", 1, 100)
		return err
	})
	if err != nil {
		return err
	}
	ids := make([]campaign.LeaseID, len(grants))
	comps := make([]campaign.Completion, len(grants))
	for i, g := range grants {
		if g.Err != nil {
			return fmt.Errorf("claim %s: %w", g.Ref, g.Err)
		}
		ids[i] = g.Lease.ID
		comps[i] = campaign.Completion{ID: g.Lease.ID, State: campaign.RunDone}
	}
	if err := call("start", func() error { _, err := q.StartBatch(ids); return err }); err != nil {
		return err
	}
	return call("complete", func() error { _, err := q.CompleteBatch(comps); return err })
}

func (w *restartWorkload) teardown() {
	if w.dir != "" {
		_ = os.RemoveAll(w.dir)
	}
}

func (w *restartWorkload) peakRSSMB() float64 { return w.rssMB }

// op boots a coordinator on the prepared store: exec → /healthz and
// /v1/cluster/nodes both 200. The process is killed once it answered; a
// boot only reads, so every operation sees the same on-disk state.
func (w *restartWorkload) op(ctx context.Context, i int, rec *recorder) (opResult, error) {
	id := rec.begin("restart.boot", 0, i)
	t0 := now()
	svc, err := startCoordinator(ctx, w.e.bin, w.dir, w.storeDir, w.e.tally)
	wall := since(t0)
	rec.end(id)
	if err != nil {
		w.e.tally.fail("boot %d: %v", i, err)
		return opResult{}, err
	}
	if mb, err := peakRSSMB(svc.co.pid()); err == nil {
		w.rssMB = max(w.rssMB, mb)
	}
	svc.stop()
	cpu := svc.co.exitedCPU()
	w.e.tally.ok(1)
	w.bootCPU = append(w.bootCPU, cpu)
	return opResult{wall: wall, runs: len(w.items), cpuS: cpu}, nil
}

// verify reopens the queue in-process and checks the recovered state is
// the one set-up built: every undriven ref pending, every driven ref done.
func (w *restartWorkload) verify(context.Context, *recorder, int, bool) error {
	q, err := campaign.OpenQueueWithOptions(w.logPath, campaign.QueueOptions{})
	if err != nil {
		w.e.tally.fail("reopen queue: %v", err)
		return nil
	}
	defer func() { _ = q.Close() }()
	driven := w.e.sz.RestartDriven
	pending, leased := q.Depth()
	if pending != len(w.items)-driven || leased != 0 {
		w.e.tally.fail("recovered queue holds %d pending, %d leased; want %d, 0", pending, leased, len(w.items)-driven)
	} else {
		w.e.tally.ok(1)
	}
	for _, i := range []int{0, driven - 1, driven, len(w.items) - 1} {
		state, done := q.Done(w.items[i].Ref)
		if want := i < driven; done != want || (done && state != campaign.RunDone) {
			w.e.tally.fail("ref %d recovered done=%v state=%q; want done=%v", i, done, state, want)
		} else {
			w.e.tally.ok(1)
		}
	}
	w.e.facts["queue_refs"] = fmt.Sprint(len(w.items))
	w.e.facts["queue_pending"] = fmt.Sprint(pending)
	return nil
}

func (w *restartWorkload) layers(ctx context.Context, rec *recorder, _ *measurement) error {
	e, logPath, snapPath := w.e, w.logPath, w.snapPath
	e.emit("campaign.manifest.expand_s", w.expandS)
	e.emit("campaign.queue.build_s", w.buildS)
	e.emit("campaign.queue.log_bytes", fileBytes(logPath))
	e.emit("campaign.queue.snapshot_bytes", fileBytes(snapPath))
	e.emit("cluster.coordinator.cpu_s", median(w.bootCPU))

	// Snapshot + tail replay, in-process, on copies of the state.
	var replayS []float64
	for k := 0; k < 3; k++ {
		dir, err := e.scratch("replay")
		if err != nil {
			return err
		}
		copyPath := filepath.Join(dir, "queue.jsonl")
		if err := copyFile(logPath, copyPath); err != nil {
			return err
		}
		if fileBytes(snapPath) > 0 {
			if err := copyFile(snapPath, filepath.Join(dir, "queue.snap.jsonl")); err != nil {
				return err
			}
		}
		id := rec.begin("campaign.queue.replay", 0, -1)
		t0 := now()
		q, err := campaign.OpenQueueWithOptions(copyPath, campaign.QueueOptions{})
		replayS = append(replayS, since(t0))
		rec.end(id)
		if err != nil {
			return err
		}
		stats := q.ReplayStats()
		e.emit("campaign.queue.replay_entries", float64(stats.LogEntries))
		e.emit("campaign.queue.snapshot_refs", float64(stats.SnapshotRefs))
		_ = q.Close()
		_ = os.RemoveAll(dir)
	}
	e.emit("campaign.queue.replay_s_p50", median(replayS))
	if fileBytes(snapPath) > 0 {
		id := rec.begin("campaign.queue.snapshot_read", 0, -1)
		t0 := now()
		_, err := campaign.ReadQueueSnapshot(snapPath)
		e.emit("campaign.queue.snapshot_read_s", since(t0))
		rec.end(id)
		if err != nil {
			return err
		}
	}

	// The same history journaled without compaction, reopened: what the
	// snapshot is meant to beat.
	dir, err := e.scratch("fulllog")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	fullPath := filepath.Join(dir, "queue.jsonl")
	never := campaign.QueueOptions{CompactEvery: -1}
	if err := buildQueueState(fullPath, w.items, e.sz.RestartDriven, e.sz.RestartBatch, never); err != nil {
		return err
	}
	id := rec.begin("campaign.queue.full_replay", 0, -1)
	t0 := now()
	q, err := campaign.OpenQueueWithOptions(fullPath, never)
	e.emit("campaign.queue.full_replay_s", since(t0))
	rec.end(id)
	if err != nil {
		return err
	}
	_ = q.Close()

	return emitBootLayer(ctx, e, rec)
}

func fileBytes(path string) float64 {
	info, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(info.Size())
}

func copyFile(from, to string) error {
	src, err := os.Open(from)
	if err != nil {
		return err
	}
	defer func() { _ = src.Close() }()
	dst, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(dst, src); err != nil {
		_ = dst.Close()
		return err
	}
	return dst.Close()
}
