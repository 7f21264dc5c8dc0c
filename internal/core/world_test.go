package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"roadrunner/internal/conformance"
	"roadrunner/internal/core"
	"roadrunner/internal/dataset"
	"roadrunner/internal/faults"
	"roadrunner/internal/ml"
	"roadrunner/internal/mobility"
	"roadrunner/internal/roadnet"
	"roadrunner/internal/sim"
)

// worldScenarios are the fault columns of the Figure-4 manifest: the runs
// that share a world differ by strategy and by one of these plans.
var worldScenarios = []string{conformance.ScenarioFaultFree, faults.ScenarioBlackout}

const worldSeed = 7

func cellBytes(t testing.TB, c conformance.Case, scenario string, seed uint64) []byte {
	t.Helper()
	res, err := conformance.Run(c, scenario, seed)
	if err != nil {
		t.Error(err)
		return nil
	}
	b, err := res.CanonicalBytes()
	if err != nil {
		t.Error(err)
	}
	return b
}

// statsDelta runs fn and returns how far the slot's counters moved.
func statsDelta(fn func()) (hits, misses, oversize uint64) {
	before := core.WorldCacheStats()
	fn()
	after := core.WorldCacheStats()
	return after.Hits - before.Hits, after.Misses - before.Misses, after.SkippedOversize - before.SkippedOversize
}

// TestWorldHitBytesMatchColdAndGolden is the contract the slot must keep:
// for every strategy × {fault-free, blackout} cell, the canonical bytes of
// a run that attached to the retained world equal those of a run that
// built it, and both equal the digests recorded at the commit before the
// slot existed (testdata/world_cells.golden).
func TestWorldHitBytesMatchColdAndGolden(t *testing.T) {
	path := filepath.Join("testdata", "world_cells.golden")
	var lines []string
	for _, c := range conformance.Cases() {
		for _, sc := range worldScenarios {
			core.ResetWorldSlot()
			var cold, warm []byte
			if h, m, _ := statsDelta(func() { cold = cellBytes(t, c, sc, worldSeed) }); h != 0 || m != 1 {
				t.Fatalf("%s/%s after reset: %d hits, %d misses, want 0, 1", c.Name, sc, h, m)
			}
			if h, m, _ := statsDelta(func() { warm = cellBytes(t, c, sc, worldSeed) }); h != 1 || m != 0 {
				t.Fatalf("%s/%s second run: %d hits, %d misses, want 1, 0", c.Name, sc, h, m)
			}
			if !bytes.Equal(cold, warm) {
				t.Errorf("%s/%s: a run on the retained world differs from the run that built it", c.Name, sc)
			}
			sum := sha256.Sum256(cold)
			lines = append(lines, fmt.Sprintf("%s/%s %s", c.Name, sc, hex.EncodeToString(sum[:])))
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if core.UpdateGolden() {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden %s (run with -update to create): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("canonical bytes moved.\ngot:\n%swant:\n%s", got, want)
	}
}

// TestWorldInterleavedSeedsRebuild: one slot, so A, B, A builds three
// times — and the second A is byte-identical to the first.
func TestWorldInterleavedSeedsRebuild(t *testing.T) {
	core.ResetWorldSlot()
	c := conformance.Cases()[2] // opportunistic
	var a1, b, a2 []byte
	h, m, _ := statsDelta(func() {
		a1 = cellBytes(t, c, conformance.ScenarioFaultFree, worldSeed)
		b = cellBytes(t, c, conformance.ScenarioFaultFree, worldSeed+1)
		a2 = cellBytes(t, c, conformance.ScenarioFaultFree, worldSeed)
	})
	if h != 0 || m != 3 {
		t.Fatalf("A,B,A: %d hits, %d misses, want 0, 3", h, m)
	}
	if !bytes.Equal(a1, a2) {
		t.Error("seed A after an interleaved seed B differs from seed A before it")
	}
	if bytes.Equal(a1, b) {
		t.Error("seeds A and B produced the same bytes")
	}
	if !core.WorldRetainedFor(conformance.Config(worldSeed)) || core.WorldRetainedFor(conformance.Config(worldSeed+1)) {
		t.Error("the slot does not hold exactly the last world built")
	}
}

// TestWorldConcurrentRunsMatchSerial drives New+Run from several
// goroutines at once, some sharing a seed and some not, from an empty and
// from a filled slot; every run must produce its serial bytes. Run under
// -race this is also the check that nothing writes to a shared world.
func TestWorldConcurrentRunsMatchSerial(t *testing.T) {
	cases := conformance.Cases()
	type job struct {
		c        conformance.Case
		scenario string
		seed     uint64
	}
	var jobs []job
	for i, c := range cases {
		// Every strategy on the shared seed, and on a seed of its own.
		jobs = append(jobs,
			job{c, worldScenarios[i%2], worldSeed},
			job{c, worldScenarios[(i+1)%2], worldSeed + 1 + uint64(i)})
	}
	serial := make([][]byte, len(jobs))
	for i, j := range jobs {
		serial[i] = cellBytes(t, j.c, j.scenario, j.seed)
	}
	for _, filled := range []bool{false, true} {
		core.ResetWorldSlot()
		if filled {
			cellBytes(t, cases[0], conformance.ScenarioFaultFree, worldSeed)
		}
		got := make([][]byte, len(jobs))
		var wg sync.WaitGroup
		for i, j := range jobs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = cellBytes(t, j.c, j.scenario, j.seed)
			}()
		}
		wg.Wait()
		for i, j := range jobs {
			if !bytes.Equal(got[i], serial[i]) {
				t.Errorf("slot filled=%v: concurrent %s/%s seed %d differs from its serial run", filled, j.c.Name, j.scenario, j.seed)
			}
		}
	}
}

// TestWorldUnchangedByRuns asserts the immutability the sharing rests on:
// the retained world's traces, partitions and test set hash the same after
// every strategy has run on it — centralized, which ships LocalData
// slices to the server and trains on them there, included.
func TestWorldUnchangedByRuns(t *testing.T) {
	core.ResetWorldSlot()
	cases := conformance.Cases()
	cellBytes(t, cases[0], conformance.ScenarioFaultFree, worldSeed)
	want, ok := core.RetainedWorldChecksum()
	if !ok {
		t.Fatal("conformance-scale world was not retained")
	}
	for _, c := range cases {
		for _, sc := range worldScenarios {
			if h, m, _ := statsDelta(func() { cellBytes(t, c, sc, worldSeed) }); h != 1 || m != 0 {
				t.Fatalf("%s/%s did not attach to the retained world (%d hits, %d misses)", c.Name, sc, h, m)
			}
			if got, _ := core.RetainedWorldChecksum(); got != want {
				t.Fatalf("%s/%s modified the shared world", c.Name, sc)
			}
		}
	}
}

// flip changes one settable scalar field to a different value.
func flip(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 0.125)
	case reflect.String:
		v.SetString(v.String() + "x")
	default:
		t.Fatalf("field of kind %v: teach flip about it", v.Kind())
	}
}

// TestWorldKeyCoversEveryWorldField flips each field of the structs the
// world is generated from, one at a time, and requires the retained world
// to stop matching. The fields are enumerated by reflection, so one added
// to GridConfig, GenConfig, dataset.Config or PartitionConfig later is
// covered without touching this test.
func TestWorldKeyCoversEveryWorldField(t *testing.T) {
	core.ResetWorldSlot()
	base := conformance.Config(worldSeed)
	newExperiment(t, base)
	if !core.WorldRetainedFor(base) {
		t.Fatal("base world not retained")
	}
	structs := []struct {
		name string
		of   func(*core.Config) any
	}{
		{"Grid", func(c *core.Config) any { return &c.Grid }},
		{"Fleet", func(c *core.Config) any { return &c.Fleet }},
		{"Data", func(c *core.Config) any { return &c.Data }},
		{"Partition", func(c *core.Config) any { return &c.Partition }},
	}
	for _, s := range structs {
		typ := reflect.TypeOf(s.of(&base)).Elem()
		for i := 0; i < typ.NumField(); i++ {
			cfg := base
			flip(t, reflect.ValueOf(s.of(&cfg)).Elem().Field(i))
			if core.WorldRetainedFor(cfg) {
				t.Errorf("changing %s.%s still matches the retained world", s.name, typ.Field(i).Name)
			}
		}
	}
	for name, mutate := range map[string]func(*core.Config){
		"Seed":             func(c *core.Config) { c.Seed++ },
		"TestSamples":      func(c *core.Config) { c.TestSamples++ },
		"RSUCount to zero": func(c *core.Config) { c.RSUCount = 0 }, // removes the "rsu" fork before the data forks
		"TraceFile":        func(c *core.Config) { c.TraceFile = "traces.csv" },
		// The traces end at a horizon below the fleet's.
		"Horizon below Fleet.Horizon": func(c *core.Config) { c.Horizon = c.Fleet.Horizon - 1 },
	} {
		cfg := base
		mutate(&cfg)
		if core.WorldRetainedFor(cfg) {
			t.Errorf("changing %s still matches the retained world", name)
		}
	}
}

func newExperiment(t *testing.T, cfg core.Config) *core.Experiment {
	t.Helper()
	strat, err := conformance.Cases()[1].New()
	if err != nil {
		t.Fatal(err)
	}
	exp, err := core.New(cfg, strat)
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

// TestWorldSharedAcrossPerRunFields: everything that distinguishes the runs
// of one (environment, seed) — strategy, fault plan, channels, a horizon
// that does not end the run before the traces, the result-invariant knobs,
// model and hardware — attaches to the same world. Each case re-attaches
// the base world first, so one miss cannot fail the cases after it.
func TestWorldSharedAcrossPerRunFields(t *testing.T) {
	core.ResetWorldSlot()
	base := conformance.Config(worldSeed)
	newExperiment(t, base)
	plan, err := faults.ScenarioPlan(faults.ScenarioMixed, conformance.ScenarioHorizon)
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string]func(*core.Config){
		"Faults":               func(c *core.Config) { c.Faults = &plan },
		"Comm":                 func(c *core.Config) { c.Comm.V2X.RangeM *= 2; c.Comm.V2C.DropProb = 0.3 },
		"Horizon zero":         func(c *core.Config) { c.Horizon = 0 },
		"Horizon at Fleet's":   func(c *core.Config) { c.Horizon = c.Fleet.Horizon },
		"Horizon past Fleet's": func(c *core.Config) { c.Horizon = 2 * c.Fleet.Horizon },
		"TickInterval":         func(c *core.Config) { c.TickInterval = 2 },
		"Trace":                func(c *core.Config) { c.Trace = true },
		"ChannelRecord":        func(c *core.Config) { c.ChannelRecord = true },
		"RSUCount":             func(c *core.Config) { c.RSUCount = 5 }, // still forks "rsu" once
		"Model":                func(c *core.Config) { c.Model = ml.MLPSpec(c.Data.Dim(), []int{12, 8}, c.Data.Classes) },
		"Train":                func(c *core.Config) { c.Train.Epochs = 1 },
		"OBU":                  func(c *core.Config) { c.OBU.Slots = 2 },
	}
	for name, mutate := range mutations {
		newExperiment(t, base)
		cfg := base
		mutate(&cfg)
		if h, m, _ := statsDelta(func() { newExperiment(t, cfg) }); h != 1 || m != 0 {
			t.Errorf("changing only %s: %d hits, %d misses, want 1, 0", name, h, m)
		}
	}
	newExperiment(t, base)
	for _, c := range conformance.Cases() {
		strat, err := c.New()
		if err != nil {
			t.Fatal(err)
		}
		if h, m, _ := statsDelta(func() {
			if _, err := core.New(base, strat); err != nil {
				t.Fatal(err)
			}
		}); h != 1 || m != 0 {
			t.Errorf("strategy %s: %d hits, %d misses, want 1, 0", c.Name, h, m)
		}
	}
}

// TestWorldSlotHoldsOneEntry: a miss on a new key replaces the entry.
func TestWorldSlotHoldsOneEntry(t *testing.T) {
	core.ResetWorldSlot()
	a, b := conformance.Config(worldSeed), conformance.Config(worldSeed)
	b.Fleet.Vehicles = 12
	newExperiment(t, a)
	sizeA := core.WorldCacheStats().RetainedBytes
	if h, m, _ := statsDelta(func() { newExperiment(t, b) }); h != 0 || m != 1 {
		t.Fatalf("new key: %d hits, %d misses, want 0, 1", h, m)
	}
	if core.WorldRetainedFor(a) || !core.WorldRetainedFor(b) {
		t.Fatal("the slot does not hold exactly the new world")
	}
	if sizeB := core.WorldCacheStats().RetainedBytes; sizeB <= 0 || sizeB >= sizeA {
		t.Fatalf("retained bytes %d after shrinking the fleet from a %d-byte world", sizeB, sizeA)
	}
}

// TestWorldOverBudgetIsNotRetained builds a world just over the retention
// budget: it serves its run, evicts what was there, and leaves the slot
// empty.
func TestWorldOverBudgetIsNotRetained(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a 70 MB dataset")
	}
	core.ResetWorldSlot()
	small := conformance.Config(worldSeed)
	newExperiment(t, small)

	big := conformance.Config(worldSeed)
	big.Data = dataset.Config{Classes: 6, H: 32, W: 32, C: 3, NoiseStd: 0.5, MaxShift: 1, Components: 1}
	big.Partition = dataset.PartitionConfig{Scheme: dataset.SchemeIID, PerAgent: 360}
	big.Model = ml.MLPSpec(big.Data.Dim(), []int{4}, big.Data.Classes)
	var exp *core.Experiment
	h, m, over := statsDelta(func() { exp = newExperiment(t, big) })
	if h != 0 || m != 1 || over != 1 {
		t.Fatalf("over-budget world: %d hits, %d misses, %d oversize, want 0, 1, 1", h, m, over)
	}
	if n := exp.DataAmount(exp.Vehicles()[0]); n != 360 {
		t.Fatalf("over-budget world not used by its own run: vehicle holds %d examples", n)
	}
	if st := core.WorldCacheStats(); st.RetainedBytes != 0 || core.WorldRetainedFor(big) || core.WorldRetainedFor(small) {
		t.Fatalf("slot not empty after an over-budget build (retained %d bytes)", st.RetainedBytes)
	}
}

// TestWorldTraceFileBypassesSlot: a path does not pin file contents, so a
// trace-file world is never retained — and never evicts.
func TestWorldTraceFileBypassesSlot(t *testing.T) {
	cfg := conformance.Config(worldSeed)
	root := sim.NewRNG(cfg.Seed)
	graph, err := roadnet.Generate(cfg.Grid, root.Fork("roadnet"))
	if err != nil {
		t.Fatal(err)
	}
	traces, err := mobility.Generate(cfg.Fleet, graph, root.Fork("mobility"))
	if err != nil {
		t.Fatal(err)
	}
	cfg.TraceFile = core.WriteTraces(t, traces)

	core.ResetWorldSlot()
	for i := 0; i < 2; i++ {
		if h, m, _ := statsDelta(func() { newExperiment(t, cfg) }); h != 0 || m != 1 {
			t.Fatalf("trace-file run %d: %d hits, %d misses, want 0, 1", i, h, m)
		}
		if _, held := core.RetainedWorldChecksum(); held {
			t.Fatal("a trace-file world was retained")
		}
	}
	generated := conformance.Config(worldSeed)
	newExperiment(t, generated)
	newExperiment(t, cfg)
	if !core.WorldRetainedFor(generated) {
		t.Fatal("a trace-file run evicted the retained world")
	}
}

// eagerParts deals cfg's vehicle data the way the world was built before
// its pool was walked: Balanced draws the whole pool on the "data-draw" fork
// and Partition deals the examples, with every root fork at New's position.
func eagerParts(t *testing.T, cfg core.Config) [][]ml.Example {
	t.Helper()
	root := sim.NewRNG(cfg.Seed)
	for _, label := range []string{"strategy", "train", "roadnet", "mobility"} {
		root.Fork(label)
	}
	if cfg.RSUCount > 0 {
		root.Fork("rsu")
	}
	root.Fork("comm")
	gen, err := dataset.NewGenerator(cfg.Data, root.Fork("data-proto"))
	if err != nil {
		t.Fatal(err)
	}
	pool, err := gen.Balanced(cfg.Fleet.Vehicles*cfg.Partition.PerAgent, root.Fork("data-draw"))
	if err != nil {
		t.Fatal(err)
	}
	parts, err := dataset.Partition(pool, cfg.Fleet.Vehicles, cfg.Partition, root.Fork("partition"))
	if err != nil {
		t.Fatal(err)
	}
	return parts
}

func sameExamples(a, b []ml.Example) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Label != b[i].Label || len(a[i].X) != len(b[i].X) {
			return false
		}
		for k, v := range a[i].X {
			if math.Float32bits(v) != math.Float32bits(b[i].X[k]) {
				return false
			}
		}
	}
	return true
}

// TestWorldLazyPartsBitIdentical: every vehicle's data, drawn on its first
// read, equals what Partition(Balanced(…)) dealt it — for each scheme, with
// and without shifts — when 8 goroutines read every vehicle at once, each
// in its own shuffled order (run under -race, this also checks the memo).
func TestWorldLazyPartsBitIdentical(t *testing.T) {
	schemes := []dataset.PartitionConfig{
		{Scheme: dataset.SchemeIID, PerAgent: 24},
		{Scheme: dataset.SchemeShards, PerAgent: 24, ShardsPerAgent: 2},
		{Scheme: dataset.SchemeDirichlet, PerAgent: 24, Alpha: 0.5},
	}
	for _, part := range schemes {
		for _, shift := range []int{0, 2} {
			cfg := conformance.Config(worldSeed)
			cfg.Partition = part
			cfg.Data.MaxShift = shift
			want := eagerParts(t, cfg)
			core.ResetWorldSlot()
			exp := newExperiment(t, cfg)
			vs := exp.Vehicles()
			const readers = 8
			got := make([][][]ml.Example, readers)
			var wg sync.WaitGroup
			for r := 0; r < readers; r++ {
				order := sim.NewRNG(uint64(r)).Perm(len(vs))
				got[r] = make([][]ml.Example, len(vs))
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, i := range order {
						got[r][i] = exp.LocalData(vs[i])
					}
				}()
			}
			wg.Wait()
			for i, v := range vs {
				if n := exp.DataAmount(v); n != len(want[i]) {
					t.Fatalf("%v MaxShift %d vehicle %d: DataAmount %d, want %d", part.Scheme, shift, i, n, len(want[i]))
				}
				for r := range got {
					if !sameExamples(got[r][i], want[i]) {
						t.Fatalf("%v MaxShift %d vehicle %d (reader %d): lazy data differs from Partition(Balanced(…))", part.Scheme, shift, i, r)
					}
				}
			}
		}
	}
}

// TestWorldDrawsOnlyWhatIsRead: building a world draws no vehicle's data,
// DataAmount draws none, and reading one vehicle draws that vehicle alone —
// a vehicle that no run reads is never drawn.
func TestWorldDrawsOnlyWhatIsRead(t *testing.T) {
	core.ResetWorldSlot()
	exp := newExperiment(t, conformance.Config(worldSeed))
	if d := core.DrawnVehicles(exp); len(d) != 0 {
		t.Fatalf("building the world drew vehicles %v", d)
	}
	for _, v := range exp.Vehicles() {
		if exp.DataAmount(v) == 0 {
			t.Fatalf("vehicle %v holds no data", v)
		}
	}
	if d := core.DrawnVehicles(exp); len(d) != 0 {
		t.Fatalf("DataAmount drew vehicles %v", d)
	}
	if exp.LocalData(exp.Server()) != nil || exp.DataAmount(exp.Server()) != 0 {
		t.Fatal("the server holds vehicle data")
	}
	exp.LocalData(exp.Vehicles()[3])
	if d := core.DrawnVehicles(exp); !reflect.DeepEqual(d, []int{3}) {
		t.Fatalf("reading vehicle 3 drew vehicles %v", d)
	}
}
