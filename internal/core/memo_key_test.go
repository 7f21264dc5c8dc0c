package core

import (
	"math"
	"slices"
	"testing"

	"roadrunner/internal/ml"
	"roadrunner/internal/sim"
)

// memoCounts reads the memo's hit and miss counters.
func memoCounts() (trainHits, trainMisses, evalHits, evalMisses uint64) {
	return worldCounters.trainHits.Load(), worldCounters.trainMisses.Load(),
		worldCounters.evalHits.Load(), worldCounters.evalMisses.Load()
}

// TestWorldMemoKeySeparatesTasks drives trainTask directly, because the
// Figure-4 runs never repeat a model on another vehicle or stream position:
// a task is taken from the memo only when model, vehicle, train config and
// stream position all match, the copy it returns is private, and training
// on anything but a vehicle's own slice is not looked up at all.
func TestWorldMemoKeySeparatesTasks(t *testing.T) {
	ResetWorldSlot()
	exp, err := New(SmallConfig(), fastFedAvg(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if exp.world.memo == nil {
		t.Fatal("a retained world has no memo")
	}
	m := exp.Model(exp.Server())
	v0, v1 := exp.Vehicles()[0], exp.Vehicles()[1]
	d0, d1 := exp.LocalData(v0), exp.LocalData(v1)
	if p := exp.partOf(v0, d0); p != 0 {
		t.Fatalf("partOf(own data) = %d, want 0", p)
	}
	for name, p := range map[string]int{
		"another vehicle's data": exp.partOf(v0, d1),
		"a copy of its data":     exp.partOf(v0, slices.Clone(d0)),
		"a prefix of its data":   exp.partOf(v0, d0[:len(d0)-1]),
		"the server":             exp.partOf(exp.Server(), d0),
	} {
		if p != -1 {
			t.Errorf("partOf(%s) = %d, want -1", name, p)
		}
	}

	train := func(part int, data []ml.Example, mark uint64) (*ml.Snapshot, float64, bool) {
		t.Helper()
		hits, _, _, _ := memoCounts()
		model, loss, err := exp.trainTask(m, part, data, sim.NewRNG(mark))
		if err != nil {
			t.Fatal(err)
		}
		after, _, _, _ := memoCounts()
		return model, loss, after > hits
	}
	first, loss, hit := train(0, d0, 1)
	if hit {
		t.Fatal("the first task hit the memo")
	}
	again, lossAgain, hit := train(0, d0, 1)
	if !hit {
		t.Fatal("the repeated task missed the memo")
	}
	if math.Float64bits(loss) != math.Float64bits(lossAgain) || !slices.Equal(bits(first), bits(again)) {
		t.Fatal("the memo returned other bits than training did")
	}
	again.Weights[0]++
	if third, _, _ := train(0, d0, 1); !slices.Equal(bits(first), bits(third)) {
		t.Fatal("changing a returned copy changed the memo")
	}
	if _, _, hit := train(0, d0, 2); hit {
		t.Error("a task at another stream position hit the memo")
	}
	if _, _, hit := train(1, d1, 1); hit {
		t.Error("a task on another vehicle hit the memo")
	}
	exp.cfg.Train.Epochs++
	if _, _, hit := train(0, d0, 1); hit {
		t.Error("a task under another train config hit the memo")
	}
	exp.cfg.Train.Epochs--

	h0, m0, _, _ := memoCounts()
	train(-1, d0, 1)
	if h1, m1, _, _ := memoCounts(); h1 != h0 || m1 != m0 {
		t.Error("a task on foreign data was looked up")
	}
}

// TestWorldMemoSharesEvaluations: a second run on the retained world
// evaluates a copy of a model the first run evaluated — a new pointer, so
// its own per-run cache misses — and gets the accuracy from the world's
// memo.
func TestWorldMemoSharesEvaluations(t *testing.T) {
	ResetWorldSlot()
	cfg := SmallConfig()
	first, err := New(cfg, fastFedAvg(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	m := first.Model(first.Server())
	want, err := first.TestAccuracy(m)
	if err != nil {
		t.Fatal(err)
	}
	second, err := New(cfg, fastFedAvg(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if second.world != first.world {
		t.Fatal("the second run did not attach to the retained world")
	}
	_, _, hits, _ := memoCounts()
	got, err := second.TestAccuracy(m.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, after, _ := memoCounts(); after != hits+1 {
		t.Fatalf("eval memo hits moved by %d, want 1", after-hits)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("accuracy from the memo %v, evaluated %v", got, want)
	}
}

// TestWorldMemoStopsAtItsCap: past worldMemoBytes nothing more is stored.
func TestWorldMemoStopsAtItsCap(t *testing.T) {
	memo := newWorldMemo()
	memo.bytes = worldMemoBytes - accEntryBytes + 1
	memo.storeTrained(trainKey{}, &ml.Snapshot{Weights: make([]float32, 4)}, 1)
	memo.storeAccuracy(modelDigest{}, 0.5)
	if len(memo.train) != 0 || len(memo.acc) != 0 || memo.bytes != worldMemoBytes-accEntryBytes+1 {
		t.Fatalf("a full memo stored %d tasks and %d accuracies", len(memo.train), len(memo.acc))
	}
	memo.bytes = 0
	memo.storeAccuracy(modelDigest{}, 0.5)
	if len(memo.acc) != 1 || memo.bytes != accEntryBytes {
		t.Fatalf("an empty memo did not store an accuracy")
	}
}

func bits(s *ml.Snapshot) []uint32 {
	out := make([]uint32, len(s.Weights))
	for i, w := range s.Weights {
		out[i] = math.Float32bits(w)
	}
	return out
}
