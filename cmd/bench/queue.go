package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"roadrunner/internal/campaign"
)

// The queue benchmark measures the two scale levers behind 10^5-run
// manifests: batched lease verbs (one journal append + fsync per batch
// instead of per run) and snapshot compaction (restart replays a
// bounded log tail instead of the whole history). Both are reported as
// host-independent ratios — batched-vs-batch-of-one throughput and
// full-vs-tail replayed entries — so the gate compares an optimization
// factor, not a raw rate that varies with the CI host's disk.

// QueueArm is one measured protocol arm: the full lifecycle
// (enqueue, claim, start, complete) driven over Runs refs.
type QueueArm struct {
	WallSeconds float64 `json:"wall_seconds"`
	RunsPerSec  float64 `json:"runs_per_sec"`
	// Fsyncs counts journal appends: the durability cost batching
	// amortizes. 4 per batch — so 4 per run in the batch-of-one arm.
	Fsyncs int `json:"fsyncs"`
}

// QueueReplay is the restart-cost measurement: how many per-ref journal
// entries each recovery path replayed and how long the open took.
type QueueReplay struct {
	FullEntries     int     `json:"full_entries"`
	TailEntries     int     `json:"tail_entries"`
	SnapshotRefs    int     `json:"snapshot_refs"`
	FullWallSeconds float64 `json:"full_wall_seconds"`
	TailWallSeconds float64 `json:"tail_wall_seconds"`
	// Reduction is full/tail replayed entries — the compaction factor.
	Reduction float64 `json:"reduction"`
}

// QueueReport is the BENCH_queue.json schema.
type QueueReport struct {
	Schema       int    `json:"schema"`
	Benchmark    string `json:"benchmark"`
	Runs         int    `json:"runs"`
	Batch        int    `json:"batch"`
	CompactEvery int    `json:"compact_every"`
	GoVersion    string `json:"go_version"`
	GOMAXPROCS   int    `json:"gomaxprocs"`

	Single  QueueArm `json:"single"`
	Batched QueueArm `json:"batched"`
	// BatchSpeedup is batched/single runs-per-second.
	BatchSpeedup float64 `json:"batch_speedup"`

	Replay QueueReplay `json:"replay"`
}

// runQueue measures the queue protocol arms and writes BENCH_queue.json.
// With check set it gates both ratios against minRatio — the CI gate
// that keeps batching and compaction from silently degrading into the
// per-run protocol they replaced — and prints the drift against the
// reference report's ratios.
func runQueue(runs, batch int, out, check string, minRatio float64) error {
	if runs < 1 || batch < 1 {
		return fmt.Errorf("queue runs and batch must be positive (got %d, %d)", runs, batch)
	}
	var ref *QueueReport
	if check != "" {
		// Load the reference before measuring: -queue-check commonly
		// points at the very file this run overwrites.
		var err error
		if ref, err = readQueueReport(check); err != nil {
			return fmt.Errorf("read reference queue report: %w", err)
		}
	}
	items := queueWorkload(runs)
	compactEvery := 2 * batch

	// The baseline arm is the same verbs at batch size 1: one append and
	// one fsync per verb per run, the cost batching amortizes.
	single, err := benchQueueBatched(items, 1, -1, nil)
	if err != nil {
		return fmt.Errorf("batch-of-one arm: %w", err)
	}
	batched, err := benchQueueBatched(items, batch, -1, nil)
	if err != nil {
		return fmt.Errorf("batched arm: %w", err)
	}
	replay, err := benchQueueReplay(items, batch, compactEvery)
	if err != nil {
		return fmt.Errorf("replay arm: %w", err)
	}

	report := QueueReport{
		Schema:       1,
		Benchmark:    "QueueProtocol/lifecycle",
		Runs:         runs,
		Batch:        batch,
		CompactEvery: compactEvery,
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Single:       single,
		Batched:      batched,
		Replay:       replay,
	}
	if single.RunsPerSec > 0 {
		report.BatchSpeedup = batched.RunsPerSec / single.RunsPerSec
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("%s: %d runs, batch %d: single %.0f runs/s (%d fsyncs), batched %.0f runs/s (%d fsyncs), %.1fx\n",
		out, runs, batch, single.RunsPerSec, single.Fsyncs, batched.RunsPerSec, batched.Fsyncs, report.BatchSpeedup)
	fmt.Printf("%s replay: full %d entries in %.3fs, snapshot+tail %d entries in %.3fs, %.1fx fewer\n",
		out, replay.FullEntries, replay.FullWallSeconds, replay.TailEntries, replay.TailWallSeconds, replay.Reduction)
	if check != "" {
		return checkQueueRegression(ref, &report, minRatio)
	}
	return nil
}

// checkQueueRegression gates the two optimization ratios. Ratios are
// measured single-host, so unlike raw throughput they survive CI host
// variation; the floor asserts the optimizations still deliver at least
// minRatio over the unoptimized protocol. The reference report's ratios
// are printed for trend visibility.
func checkQueueRegression(ref, cur *QueueReport, minRatio float64) error {
	if ref != nil && ref.BatchSpeedup > 0 {
		fmt.Printf("check: batch speedup %.1fx (reference %.1fx), replay reduction %.1fx (reference %.1fx)\n",
			cur.BatchSpeedup, ref.BatchSpeedup, cur.Replay.Reduction, ref.Replay.Reduction)
	}
	if cur.BatchSpeedup < minRatio {
		return fmt.Errorf("batched-verb speedup regression: %.1fx vs required %.1fx minimum", cur.BatchSpeedup, minRatio)
	}
	if cur.Replay.Reduction < minRatio {
		return fmt.Errorf("snapshot replay-reduction regression: %.1fx vs required %.1fx minimum", cur.Replay.Reduction, minRatio)
	}
	fmt.Printf("check: both ratios clear the %.1fx floor\n", minRatio)
	return nil
}

// queueWorkload builds runs synthetic queue items with distinct refs,
// keys, and minimal specs — the queue journals the spec verbatim and
// never executes it.
func queueWorkload(runs int) []campaign.QueueItem {
	items := make([]campaign.QueueItem, runs)
	for i := range items {
		items[i] = campaign.QueueItem{
			Ref:  fmt.Sprintf("bench/run-%06d", i),
			Key:  fmt.Sprintf("k%06d", i),
			Spec: campaign.RunSpec{Name: "bench"},
		}
	}
	return items
}

// benchQueueBatched drives the full lifecycle (enqueue, claim, start,
// complete) in batches of batch runs, so every batch shares one
// append+fsync per verb. With a non-nil keepDir the queue directory is
// kept and handed back through it for the caller to reopen (the replay
// arm) and remove.
func benchQueueBatched(items []campaign.QueueItem, batch, compactEvery int, keepDir *string) (QueueArm, error) {
	dir, err := os.MkdirTemp("", "benchqueue-")
	if err != nil {
		return QueueArm{}, err
	}
	if keepDir != nil {
		*keepDir = dir
	} else {
		defer func() { _ = os.RemoveAll(dir) }()
	}
	q, err := campaign.OpenQueueWithOptions(filepath.Join(dir, "queue.jsonl"), campaign.QueueOptions{CompactEvery: compactEvery})
	if err != nil {
		return QueueArm{}, err
	}
	defer func() { _ = q.Close() }()
	fsyncs := 0
	start := time.Now() //roadlint:allow wallclock harness timing of the benchmark itself
	for lo := 0; lo < len(items); lo += batch {
		hi := min(lo+batch, len(items))
		chunk := items[lo:hi]
		if err := q.EnqueueBatch(chunk); err != nil {
			return QueueArm{}, err
		}
		refs := make([]string, len(chunk))
		for i, it := range chunk {
			refs[i] = it.Ref
		}
		grants, err := q.ClaimBatch(refs, "bench-node", 1, 100)
		if err != nil {
			return QueueArm{}, err
		}
		ids := make([]campaign.LeaseID, len(grants))
		comps := make([]campaign.Completion, len(grants))
		for i, g := range grants {
			if g.Err != nil {
				return QueueArm{}, fmt.Errorf("claim slot %s: %w", g.Ref, g.Err)
			}
			ids[i] = g.Lease.ID
			comps[i] = campaign.Completion{ID: g.Lease.ID, State: campaign.RunDone}
		}
		if _, err := q.StartBatch(ids); err != nil {
			return QueueArm{}, err
		}
		if _, err := q.CompleteBatch(comps); err != nil {
			return QueueArm{}, err
		}
		fsyncs += 4
	}
	wall := time.Since(start).Seconds() //roadlint:allow wallclock harness timing of the benchmark itself
	arm := QueueArm{WallSeconds: wall, Fsyncs: fsyncs}
	if wall > 0 {
		arm.RunsPerSec = float64(len(items)) / wall
	}
	return arm, nil
}

// benchQueueReplay measures restart cost: the identical workload is
// journaled twice — once with compaction disabled, once compacting every
// compactEvery entries — and each log is reopened, counting how many
// per-ref entries recovery replayed.
func benchQueueReplay(items []campaign.QueueItem, batch, compactEvery int) (QueueReplay, error) {
	var rep QueueReplay
	measure := func(every int) (campaign.ReplayStats, float64, error) {
		var dir string
		if _, err := benchQueueBatched(items, batch, every, &dir); err != nil {
			return campaign.ReplayStats{}, 0, err
		}
		defer func() { _ = os.RemoveAll(dir) }()
		start := time.Now() //roadlint:allow wallclock harness timing of the benchmark itself
		q, err := campaign.OpenQueueWithOptions(filepath.Join(dir, "queue.jsonl"), campaign.QueueOptions{CompactEvery: every})
		if err != nil {
			return campaign.ReplayStats{}, 0, err
		}
		wall := time.Since(start).Seconds() //roadlint:allow wallclock harness timing of the benchmark itself
		stats := q.ReplayStats()
		return stats, wall, q.Close()
	}
	full, fullWall, err := measure(-1)
	if err != nil {
		return rep, fmt.Errorf("full-log replay: %w", err)
	}
	tail, tailWall, err := measure(compactEvery)
	if err != nil {
		return rep, fmt.Errorf("snapshot+tail replay: %w", err)
	}
	if !tail.UsedSnapshot {
		return rep, fmt.Errorf("compacting arm (every %d entries) never produced a snapshot", compactEvery)
	}
	rep = QueueReplay{
		FullEntries:     full.LogEntries,
		TailEntries:     tail.LogEntries,
		SnapshotRefs:    tail.SnapshotRefs,
		FullWallSeconds: fullWall,
		TailWallSeconds: tailWall,
	}
	rep.Reduction = float64(rep.FullEntries) / float64(max(rep.TailEntries, 1))
	return rep, nil
}

// readQueueReport loads a previously written BENCH_queue.json.
func readQueueReport(path string) (*QueueReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r QueueReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
