package core_test

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"roadrunner/internal/campaign"
	"roadrunner/internal/core"
)

// fig4Specs are the Figure-4 runs of one seed as a campaign expands them —
// BASE and OPP, fault-free and blackout, 2 rounds on the default
// environment — traced, so each run also yields its trace CSV.
func fig4Specs(t *testing.T, seed uint64) []campaign.RunSpec {
	t.Helper()
	m := campaign.Manifest{
		Name: "memo-fig4", Env: campaign.EnvDefault, Rounds: 2,
		Strategies: []campaign.StrategySpec{{Kind: "fedavg"}, {Kind: "opp"}},
		Seeds:      []uint64{seed},
		Scenarios:  []string{campaign.ScenarioFaultFree, "blackout"}, ScenarioSpanS: 400,
	}
	specs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		specs[i].Config.Trace = true
	}
	return specs
}

// runOutput is what a run must reproduce bit for bit: its canonical bytes
// and its trace CSV.
type runOutput struct{ canonical, traceCSV []byte }

func runSpec(t testing.TB, spec campaign.RunSpec) runOutput {
	t.Helper()
	strat, err := spec.Strategy.Build()
	if err != nil {
		t.Error(err)
		return runOutput{}
	}
	exp, err := core.New(spec.Config, strat)
	if err != nil {
		t.Error(err)
		return runOutput{}
	}
	res, err := exp.Run()
	if err != nil {
		t.Error(err)
		return runOutput{}
	}
	var out runOutput
	if out.canonical, err = res.CanonicalBytes(); err != nil {
		t.Error(err)
	}
	var csv bytes.Buffer
	if err := res.Trace.WriteCSV(&csv); err != nil {
		t.Error(err)
	}
	out.traceCSV = csv.Bytes()
	return out
}

func sameOutput(t *testing.T, label string, spec campaign.RunSpec, got, want runOutput) {
	t.Helper()
	if !bytes.Equal(got.canonical, want.canonical) {
		t.Errorf("%s: %s canonical bytes differ from its cold run", label, spec.Name)
	}
	if !bytes.Equal(got.traceCSV, want.traceCSV) {
		t.Errorf("%s: %s trace CSV differs from its cold run", label, spec.Name)
	}
}

// memoDelta runs fn and returns how many training tasks and evaluations
// were taken from a world's memo.
func memoDelta(fn func()) (trainHits, evalHits uint64) {
	before := core.WorldCacheStats()
	fn()
	after := core.WorldCacheStats()
	return after.TrainMemoHits - before.TrainMemoHits, after.EvalMemoHits - before.EvalMemoHits
}

// TestWorldMemoBitIdentical holds the world's memo of training tasks and
// evaluations to the runs it replaces: for the Figure-4 runs of two seeds,
// every run yields the canonical bytes and trace CSV of a cold run (slot
// emptied first, so no memo entry exists) whether the seed's runs go in
// manifest order or in reverse — and the memo must have been used, or the
// comparison shows nothing. -short checks one seed.
func TestWorldMemoBitIdentical(t *testing.T) {
	seeds := []uint64{100, 7}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		specs := fig4Specs(t, seed)
		cold := make([]runOutput, len(specs))
		for i, spec := range specs {
			core.ResetWorldSlot()
			cold[i] = runSpec(t, spec)
		}
		order := make([]int, len(specs))
		for i := range order {
			order[i] = i
		}
		for _, pass := range []string{"manifest order", "reverse order"} {
			if pass == "reverse order" {
				slices.Reverse(order)
			}
			core.ResetWorldSlot()
			trainHits, evalHits := memoDelta(func() {
				for _, i := range order {
					sameOutput(t, pass, specs[i], runSpec(t, specs[i]), cold[i])
				}
			})
			t.Logf("seed %d, %s: %d training tasks and %d evaluations from the memo", seed, pass, trainHits, evalHits)
			if trainHits == 0 {
				t.Errorf("seed %d, %s: no training task came from the memo", seed, pass)
			}
		}
	}
}

// TestWorldMemoConcurrentBitIdentical runs a seed's four Figure-4 runs at
// once on one retained world, so they read and fill its memo together; each
// must yield its cold bytes and trace CSV. Under -race it is the check that
// the memo is safely shared.
func TestWorldMemoConcurrentBitIdentical(t *testing.T) {
	specs := fig4Specs(t, 7)
	cold := make([]runOutput, len(specs))
	for i, spec := range specs {
		core.ResetWorldSlot()
		cold[i] = runSpec(t, spec)
	}
	// A first run builds the world into the slot and fills part of its
	// memo; the four concurrent runs then all attach to it.
	core.ResetWorldSlot()
	runSpec(t, specs[0])
	got := make([]runOutput, len(specs))
	trainHits, _ := memoDelta(func() {
		var wg sync.WaitGroup
		for i, spec := range specs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = runSpec(t, spec)
			}()
		}
		wg.Wait()
	})
	for i, spec := range specs {
		sameOutput(t, "concurrent", spec, got[i], cold[i])
	}
	if trainHits == 0 {
		t.Error("no concurrent run took a training task from the memo")
	}
}
