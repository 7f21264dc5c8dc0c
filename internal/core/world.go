package core

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"roadrunner/internal/dataset"
	"roadrunner/internal/ml"
	"roadrunner/internal/mobility"
	"roadrunner/internal/roadnet"
	"roadrunner/internal/sim"
)

// world is the immutable half of an experiment: the road network, the
// vehicle traces, every vehicle's local data and the server's test set.
// It is a pure function of its worldKey, and nothing reads it through a
// mutating path after buildWorld returns — Graph and Replayer are only
// queried, ml.Network.Train shuffles an index slice, strategies that ship
// LocalData ship the slices as they are — so the runs that evaluate
// different strategies and fault plans on one (environment, seed) can all
// attach to the same instance.
//
// A world holds only what a run can read. Traces end at the run's horizon
// (mobility.GenConfig.Through), and the vehicles' data is a walked pool:
// vehicle i's examples are drawn from their recorded stream positions the
// first time a run reads them (part).
//
// A world the slot retains also carries a memo of the training tasks and
// test evaluations its runs computed (worldMemo): the Figure-4 runs of one
// seed repeat many of each other's tasks bit for bit — a blackout run
// repeats its fault-free twin until the blackout starts — and the memo
// lets the later run take them instead of training again. Worlds no other
// run can attach to (oversize, trace-file) get none. The drawn parts and
// the memo are the only writes after buildWorld, and both store pure
// functions of the key.
type world struct {
	graph    *roadnet.Graph // nil for trace-file worlds
	replayer *mobility.Replayer
	pool     *dataset.Pool
	assign   [][]int    // assign[i]: the pool indices of the vehicle replaying trace i
	parts    []lazyPart // parts[i]: that vehicle's examples, once drawn
	testSet  []ml.Example
	bytes    int64      // estimated heap footprint, see sizeOf
	memo     *worldMemo // nil unless the slot retained the world
}

type lazyPart struct {
	once     sync.Once
	examples []ml.Example
}

// part returns the local data of vehicle i, drawing it on first use.
func (w *world) part(i int) []ml.Example {
	p := &w.parts[i]
	p.once.Do(func() { p.examples = w.pool.Examples(w.assign[i]) })
	return p.examples
}

// worldKey holds, by value, every configuration field a world depends on
// — seed included; strategy, fault plan, channels, model and hardware
// excluded. Fleet is the generated fleet: its Horizon is the run's
// Config.Horizon when that ends the run before the traces do
// (mobility.GenConfig.Through). RSUs is part of it because the conditional
// "rsu" fork sits between the mobility and the data forks: placing any RSU
// shifts the root stream the three data forks are drawn from. TraceFile
// worlds are never retained (see worldFor); the path is in the key so that
// a trace-file world never compares equal to a generated one.
type worldKey struct {
	Seed        uint64
	TraceFile   string
	Grid        roadnet.GridConfig
	Fleet       mobility.GenConfig
	RSUs        bool
	Data        dataset.Config
	Partition   dataset.PartitionConfig
	TestSamples int
}

func worldKeyOf(cfg Config) worldKey {
	return worldKey{
		Seed:        cfg.Seed,
		TraceFile:   cfg.TraceFile,
		Grid:        cfg.Grid,
		Fleet:       cfg.Fleet.Through(cfg.Horizon),
		RSUs:        cfg.RSUCount > 0,
		Data:        cfg.Data,
		Partition:   cfg.Partition,
		TestSamples: cfg.TestSamples,
	}
}

// worldStreams are the root-RNG forks a world is generated from. New forks
// them at their fixed positions in the root sequence whether or not the
// world is then built: a fork consumes one root draw, and the streams
// forked after them ("comm", "init-weights", "faults", "channel") must not
// depend on whether the slot held the world.
type worldStreams struct {
	roadnet, mobility      *sim.RNG // nil with Config.TraceFile
	proto, draw, partition *sim.RNG
}

// worldRetainBytes is the largest world the slot keeps. The default
// environment's world is ~31 MB and is retained; a 1 000-vehicle world is
// ~245 MB and is built, used and left to the collector with its run —
// retaining it would raise peak RSS by its size for the one process in
// which the next run happens to share its seed.
const worldRetainBytes = 64 << 20

// worldSlot is the process-wide cache: the most recently built world, and
// nothing else. One entry is all the reuse pattern needs — a campaign
// expands strategies × fault scenarios per seed, so the runs that share a
// world arrive back to back — and all that the memory bound allows.
var worldSlot struct {
	mu  sync.Mutex
	key worldKey
	w   *world
}

var worldCounters struct {
	hits, misses, oversize                       atomic.Uint64
	trainHits, trainMisses, evalHits, evalMisses atomic.Uint64
}

// WorldCacheStat is a snapshot of the world slot's counters.
type WorldCacheStat struct {
	// Hits counts runs that attached to the retained world; Misses runs
	// that built theirs (trace-file runs, which bypass the slot, included).
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// SkippedOversize counts built worlds that were too large to retain.
	SkippedOversize uint64 `json:"skipped_oversize"`
	// RetainedBytes is the estimated size of the world held right now.
	RetainedBytes int64 `json:"retained_bytes"`
	// TrainMemoHits counts training tasks taken from a world's memo,
	// TrainMemoMisses those looked up and computed; EvalMemoHits and
	// EvalMemoMisses do the same for test evaluations. Tasks on worlds
	// without a memo, and tasks on data that is not a vehicle's own, are
	// not looked up and count in neither.
	TrainMemoHits   uint64 `json:"train_memo_hits"`
	TrainMemoMisses uint64 `json:"train_memo_misses"`
	EvalMemoHits    uint64 `json:"eval_memo_hits"`
	EvalMemoMisses  uint64 `json:"eval_memo_misses"`
}

// WorldCacheStats reports how often core.New reused a world and how often
// runs reused a world's training tasks and evaluations. It is host
// telemetry: it never enters canonical bytes or run metadata.
func WorldCacheStats() WorldCacheStat {
	st := WorldCacheStat{
		Hits:            worldCounters.hits.Load(),
		Misses:          worldCounters.misses.Load(),
		SkippedOversize: worldCounters.oversize.Load(),
		TrainMemoHits:   worldCounters.trainHits.Load(),
		TrainMemoMisses: worldCounters.trainMisses.Load(),
		EvalMemoHits:    worldCounters.evalHits.Load(),
		EvalMemoMisses:  worldCounters.evalMisses.Load(),
	}
	worldSlot.mu.Lock()
	if worldSlot.w != nil {
		st.RetainedBytes = worldSlot.w.bytes
	}
	worldSlot.mu.Unlock()
	return st
}

// worldFor returns the world of cfg: the retained one when its key
// matches, a freshly built one otherwise. The slot is emptied before a
// miss starts generating, so the cache never keeps two worlds reachable,
// and the lock is not held while generating, so concurrent misses build in
// parallel as they did before the slot existed (the last to finish stays).
// A world is given its memo just before it enters the slot.
func worldFor(cfg Config, ws worldStreams) (*world, error) {
	if cfg.TraceFile != "" {
		// A path does not pin the file's contents.
		worldCounters.misses.Add(1)
		return buildWorld(worldKeyOf(cfg), ws)
	}
	key := worldKeyOf(cfg)
	worldSlot.mu.Lock()
	if w := worldSlot.w; w != nil && worldSlot.key == key {
		worldSlot.mu.Unlock()
		worldCounters.hits.Add(1)
		return w, nil
	}
	worldSlot.w = nil
	worldSlot.mu.Unlock()

	worldCounters.misses.Add(1)
	w, err := buildWorld(key, ws)
	if err != nil {
		return nil, err
	}
	if w.bytes > worldRetainBytes {
		worldCounters.oversize.Add(1)
		return w, nil
	}
	w.memo = newWorldMemo()
	worldSlot.mu.Lock()
	worldSlot.key, worldSlot.w = key, w
	worldSlot.mu.Unlock()
	return w, nil
}

// buildWorld generates (or, with a trace file, loads) the spatial dynamics
// and the data of k from their dedicated streams.
func buildWorld(k worldKey, ws worldStreams) (*world, error) {
	w := &world{}
	var traces *mobility.TraceSet
	var err error
	if k.TraceFile != "" {
		if traces, err = readTraceFile(k.TraceFile); err != nil {
			return nil, err
		}
	} else {
		if w.graph, err = roadnet.Generate(k.Grid, ws.roadnet); err != nil {
			return nil, err
		}
		if traces, err = mobility.Generate(k.Fleet, w.graph, ws.mobility); err != nil {
			return nil, err
		}
	}
	if w.replayer, err = mobility.NewReplayer(traces); err != nil {
		return nil, err
	}

	gen, err := dataset.NewGenerator(k.Data, ws.proto)
	if err != nil {
		return nil, err
	}
	vehicles := w.replayer.NumVehicles()
	if w.pool, err = gen.Walk(vehicles*k.Partition.PerAgent, ws.draw); err != nil {
		return nil, err
	}
	if w.assign, err = dataset.PartitionIndices(w.pool.Labels(), vehicles, k.Partition, ws.partition); err != nil {
		return nil, err
	}
	w.parts = make([]lazyPart, vehicles)
	// The test set continues the draw stream the pool was walked on.
	if w.testSet, err = gen.Balanced(k.TestSamples, ws.draw); err != nil {
		return nil, err
	}
	w.bytes = w.sizeOf(k.Data.Dim())
	return w, nil
}

func readTraceFile(path string) (*mobility.TraceSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: open trace file: %w", err)
	}
	defer func() { _ = f.Close() }()
	traces, err := mobility.ReadCSV(f)
	if err != nil {
		return nil, fmt.Errorf("core: read trace file: %w", err)
	}
	return traces, nil
}

// sizeOf estimates the world's heap footprint: float32 features plus the
// example header per example, and the trace samples. Every vehicle's data
// counts as drawn — the bound a world reaches once its runs have read it
// all — so a world is retained or not on the same terms as when the pool
// was drawn up front. The road network is a few hundred nodes and is not
// counted.
func (w *world) sizeOf(dim int) int64 {
	examples := int64(len(w.testSet))
	for _, a := range w.assign {
		examples += int64(len(a))
	}
	var samples int64
	for _, tr := range w.replayer.TraceSet().Traces {
		samples += int64(len(tr.Samples))
	}
	const exampleHeader, traceSample = 32, 32 // ml.Example and mobility.Sample on 64-bit hosts
	return examples*(int64(dim)*4+exampleHeader) + samples*traceSample
}
