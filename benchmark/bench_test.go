package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"roadrunner/internal/campaign"
)

// The daemon is built once for the whole package: every service workload
// test spawns the same binary.
var daemon struct {
	once sync.Once
	root string
	bin  string
	spec *benchSpec
	err  error
}

func testDaemon(t *testing.T) (root, bin string, spec *benchSpec) {
	t.Helper()
	daemon.once.Do(func() {
		if daemon.root, daemon.err = findRoot(); daemon.err != nil {
			return
		}
		if daemon.spec, daemon.err = loadSpec(daemon.root); daemon.err != nil {
			return
		}
		dir, err := os.MkdirTemp("", "benchbin-")
		if err != nil {
			daemon.err = err
			return
		}
		daemon.bin, _, daemon.err = buildDaemon(context.Background(), daemon.root, dir)
	})
	if daemon.err != nil {
		t.Fatal(daemon.err)
	}
	return daemon.root, daemon.bin, daemon.spec
}

func TestMain(m *testing.M) {
	code := m.Run()
	if daemon.bin != "" {
		_ = os.RemoveAll(filepath.Dir(daemon.bin))
	}
	os.Exit(code)
}

func smokeEnv(t *testing.T, traced bool) *benchEnv {
	_, bin, _ := testDaemon(t)
	return &benchEnv{
		bin: bin, workdir: t.TempDir(), seed: 1, sz: smokeSizes,
		traced: traced, tally: &tally{},
		layer: make(map[string]float64), facts: make(map[string]string),
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmokeEndToEnd runs all six workloads at smoke size and checks every
// end-to-end metric of BENCHMARK.json comes out once, finite and non-zero,
// with nothing failing.
func TestSmokeEndToEnd(t *testing.T) {
	_, _, spec := testDaemon(t)
	if len(spec.every()) != 6 {
		t.Fatalf("BENCHMARK.json and the hand-run list hold %d workloads, want 6", len(spec.every()))
	}
	hashes := map[string]string{}
	for _, wl := range spec.every() {
		e := smokeEnv(t, false)
		res, err := runWorkload(context.Background(), spec, e, wl.Name, 0.2, "")
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d notes=%v", wl.Name, res.Correct, res.Attempted, res.Failed, res.Notes)
		}
		if len(res.Metrics) != len(spec.EndToEnd) {
			t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", wl.Name, len(res.Metrics), len(spec.EndToEnd))
		}
		for _, d := range spec.EndToEnd {
			v, ok := res.Metrics[d.Name]
			if !ok {
				t.Errorf("%s: metric %s missing", wl.Name, d.Name)
				continue
			}
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value <= 0 {
				t.Errorf("%s: %s = %v, want finite and positive", wl.Name, d.Name, v.Value)
			}
			if v.Unit != d.Unit {
				t.Errorf("%s: %s unit %q, declared %q", wl.Name, d.Name, v.Unit, d.Unit)
			}
		}
		hashes[wl.Name] = res.Facts["merged_sha256"]
	}
	// Library path and service path merge the same manifest to the same
	// bytes (at smoke size both cover exactly the first seed).
	if hashes["fig4-sim"] == "" || hashes["fig4-sim"] != hashes["cluster-fig4"] {
		t.Errorf("fig4-sim merged %q, cluster-fig4 merged %q", hashes["fig4-sim"], hashes["cluster-fig4"])
	}
}

// TestSmokeTraced runs the traced mode of all six workloads and checks the
// per-layer set: every declared name present and finite in every workload,
// every declared name produced by at least one workload, and nothing
// emitted that BENCHMARK.json does not declare (resolve rejects that).
func TestSmokeTraced(t *testing.T) {
	_, _, spec := testDaemon(t)
	produced := map[string]bool{}
	out := t.TempDir()
	for _, wl := range spec.every() {
		e := smokeEnv(t, true)
		res, err := runWorkload(context.Background(), spec, e, wl.Name, 0.3, out)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		if res.Failed != 0 {
			t.Errorf("%s: %d failed operations: %v", wl.Name, res.Failed, res.Notes)
		}
		for _, d := range spec.PerLayer {
			v, ok := res.Metrics[d.Name]
			if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: per-layer metric %s = %v (present %v)", wl.Name, d.Name, v.Value, ok)
			}
		}
		for name := range e.layer {
			produced[name] = true
		}
		switch wl.Name {
		case "cluster-warm", "restart":
			if n := res.Metrics["roadrunnerd.worker.executed"].Value; n != 0 {
				t.Errorf("%s executed %v runs, want 0", wl.Name, n)
			}
			if n := res.Metrics["ml.train_tasks"].Value; n != 0 {
				t.Errorf("%s reports %v train tasks, want 0", wl.Name, n)
			}
		case "cluster-cold":
			if n := res.Metrics["roadrunnerd.worker.executed"].Value; n == 0 {
				t.Errorf("cluster-cold executed no run")
			}
			if n := res.Metrics["cluster.coordinator.stale_completes"].Value; n != 0 {
				t.Errorf("cluster-cold saw %v stale completes", n)
			}
		}
		var tf traceFile
		data, err := os.ReadFile(filepath.Join(out, wl.Name+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &tf); err != nil || len(tf.Spans) == 0 {
			t.Errorf("%s: trace file holds %d spans (%v)", wl.Name, len(tf.Spans), err)
		}
	}
	// Counters that only move when something goes wrong, or only at full
	// size (100 refs never reach the compaction threshold), stay unset.
	quiet := map[string]bool{
		"campaign.queue.snapshot_read_s": true,
	}
	for _, d := range spec.PerLayer {
		if !metricName.MatchString(d.Name) {
			t.Errorf("per-layer name %q is outside the naming rule", d.Name)
		}
		if !produced[d.Name] && !quiet[d.Name] {
			t.Errorf("per-layer metric %s is declared but no workload emits it", d.Name)
		}
	}
	for _, d := range spec.EndToEnd {
		if !metricName.MatchString(d.Name) {
			t.Errorf("end-to-end name %q is outside the naming rule", d.Name)
		}
	}
}

// TestRunAndCheck drives the command line end to end: two reports of one
// workload, then -check over them.
func TestRunAndCheck(t *testing.T) {
	testDaemon(t)
	work := t.TempDir()
	if fs, err := fsType(work); err != nil || memoryBacked(fs) {
		t.Skipf("temp dir is on %s (%v)", fs, err)
	}
	var reports []string
	for _, name := range []string{"a", "b"} {
		out := filepath.Join(t.TempDir(), name)
		var buf bytes.Buffer
		args := []string{"--workload", "fig4-sim", "--seed", "3", "--seconds", "0.1", "--trace", "0", "-size", "smoke", "-workdir", work, "-out", out}
		if err := run(context.Background(), args, &buf); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var last struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
		}
		if !last.Correct || last.Attempted < 1 || last.Failed != 0 || last.Metrics["setup_s"].Unit != "s" {
			t.Errorf("result line %+v", last)
		}
		reports = append(reports, filepath.Join(out, "report.json"))
	}
	var buf bytes.Buffer
	// Two smoke runs of a few milliseconds need not agree; the check must
	// print one row per metric either way.
	_ = run(context.Background(), append([]string{"-check"}, reports...), &buf)
	for _, want := range []string{"fig4-sim", "setup_s", "runs_per_s", "peak_rss_mb"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("-check output lacks %q:\n%s", want, buf.String())
		}
	}
	for _, bad := range [][]string{
		{"--workload", "nope"}, {"-size", "huge"}, {"--trace", "2"}, {"-check", "only-one.json"}, {"--seconds", "-1"},
	} {
		if err := run(context.Background(), bad, &buf); err == nil {
			t.Errorf("run(%v) succeeded", bad)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "new", Start: 1, End: 4},
		{ID: 3, Parent: 1, Name: "run", Start: 3, End: 8},   // overlaps new by 1
		{ID: 4, Parent: 3, Name: "eval", Start: 5, End: 6},  // grandchild: not op's child
		{ID: 5, Parent: 1, Name: "late", Start: 9, End: 12}, // sticks out of op
		{ID: 6, Parent: 1, Name: "open", Start: 2, End: -1}, // never closed
	}
	self := selfTimes(spans)
	// op: 10 minus the union [1,8] ∪ [9,10] = 8 → 2.
	for name, want := range map[string]float64{"op": 2, "new": 3, "run": 4, "eval": 1, "late": 3} {
		if got := self[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("self time of %s = %v, want %v", name, got, want)
		}
	}
	if _, ok := self["open"]; ok {
		t.Errorf("an unclosed span has a self time")
	}
	var nilRec *recorder
	if id := nilRec.begin("x", 0, 0); id != 0 {
		t.Errorf("nil recorder handed out span %d", id)
	}
	nilRec.end(1)
	nilRec.count(1, "k", 1)
	if nilRec.durations("x") != nil || nilRec.counts("x", "k") != nil {
		t.Errorf("nil recorder returned samples")
	}
}

func TestHighPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{7, 0, false}, {39, 0, false}, {40, 75, true}, {99, 75, true},
		{100, 90, true}, {199, 90, true}, {200, 95, true}, {1000, 99, true},
	} {
		got, ok := highPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	s := summarize([]float64{1, 2, 3}, []float64{4})
	if s.HighPct != 0 || s.P50 != 2 || s.N != 3 {
		t.Errorf("summary of three samples %+v", s)
	}
}

func TestRatesAreSliceMedians(t *testing.T) {
	// 24 one-run operations of 1 s wall, 0.5 s CPU; three stalled ones
	// fall into three different slices of two and leave the medians alone.
	m := &measurement{}
	for i := 0; i < 24; i++ {
		m.ops = append(m.ops, opResult{wall: 1, runs: 1, cpuS: 0.5})
	}
	for _, i := range []int{0, 9, 23} {
		m.ops[i].wall = 30
	}
	if perS, perCPUS := m.rates(); perS != 1 || perCPUS != 2 {
		t.Errorf("rates = %v, %v; want 1, 2", perS, perCPUS)
	}
	// Fewer operations than slices: the operations are the slices.
	few := &measurement{ops: []opResult{{wall: 1, runs: 4, cpuS: 1}, {wall: 2, runs: 4, cpuS: 1}, {wall: 4, runs: 4, cpuS: 1}}}
	if perS, perCPUS := few.rates(); perS != 2 || perCPUS != 4 {
		t.Errorf("rates of three operations = %v, %v; want 2, 4", perS, perCPUS)
	}
	// A CPU clock too coarse for one operation: slices are widened until
	// each has a reading, down to the loop as a whole.
	coarse := &measurement{ops: []opResult{{wall: 1, runs: 1}, {wall: 1, runs: 1, cpuS: 0.01}, {wall: 1, runs: 1}, {wall: 1, runs: 1, cpuS: 0.01}}}
	if perS, perCPUS := coarse.rates(); perS != 1 || perCPUS != 200 {
		t.Errorf("rates on a coarse CPU clock = %v, %v; want 1, 200", perS, perCPUS)
	}
	if perS, perCPUS := (&measurement{}).rates(); perS != 0 || perCPUS != 0 {
		t.Errorf("rates of nothing = %v, %v", perS, perCPUS)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
	if q1, q2, q3 := quartiles([]float64{10, 20}); q1 != 7.5 || q2 != 15 || q3 != 22.5 {
		t.Errorf("quartiles of two = %v %v %v", q1, q2, q3)
	}
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one sample = %v", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDecl{Name: "setup_s", Better: "lower", Bound: 0.10}
	higher := metricDecl{Name: "runs_per_s", Better: "higher", Bound: 0.10}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c} }
	for _, c := range []struct {
		name       string
		d          metricDecl
		base, cand []float64
		want       verdict
	}{
		{"same", lower, tight(1), tight(1), within},
		{"slower within bound", lower, tight(1), tight(1.08), within},
		{"slower beyond bound", lower, tight(1), tight(1.2), regressed},
		{"faster", lower, tight(1), tight(0.5), within},
		{"throughput down", higher, tight(100), tight(80), regressed},
		{"throughput up", higher, tight(100), tight(130), within},
		{"noisy", lower, []float64{1, 1.5, 0.7, 1.3, 0.8}, tight(1), unresolved},
		{"noisy but every run better", lower, []float64{1, 1.5, 0.7, 1.3, 0.8}, tight(0.5), within},
		{"noisy throughput, every run better", higher, []float64{100, 150, 70, 130, 80}, tight(200), within},
	} {
		if got, _ := judge(c.d, c.base, c.cand); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCheckFlagsFailedRuns(t *testing.T) {
	_, _, spec := testDaemon(t)
	mk := func(failed int) *report {
		r := &report{}
		for _, wl := range spec.every() {
			m := map[string]metricValue{}
			for _, d := range spec.EndToEnd {
				m[d.Name] = metricValue{Value: 1, Unit: d.Unit}
			}
			r.Results = append(r.Results, &workloadResult{Workload: wl.Name, Correct: failed == 0, Attempted: 5, Failed: failed, Metrics: m})
		}
		return r
	}
	var buf bytes.Buffer
	if !check(&buf, spec, mk(0), mk(0)) {
		t.Errorf("identical reports are not within bounds:\n%s", buf.String())
	}
	if rows := strings.Count(buf.String(), "within"); rows != len(spec.every())*len(spec.EndToEnd) {
		t.Errorf("%d rows, want one per (workload, metric)", rows)
	}
	if check(&buf, spec, mk(0), mk(1)) {
		t.Errorf("a report with failed operations passed the check")
	}
}

func TestResolve(t *testing.T) {
	decls := []metricDecl{{Name: "a", Unit: "s"}, {Name: "b", Unit: "count"}}
	if _, err := resolve(decls, map[string]float64{"a": 1}, true); err == nil {
		t.Errorf("a missing end-to-end metric was accepted")
	}
	got, err := resolve(decls, map[string]float64{"a": 1}, false)
	if err != nil || got["b"].Value != 0 || got["b"].Unit != "count" || got["a"].Value != 1 {
		t.Errorf("resolve = %v, %v", got, err)
	}
	if _, err := resolve(decls, map[string]float64{"a": 1, "typo": 2}, false); err == nil {
		t.Errorf("an undeclared metric was accepted")
	}
}

// TestCorruptedStoreEntryCountsAsFailure is the byte-mismatch path: bytes
// that do not come back as the run produced them raise failed, not
// correct.
func TestCorruptedStoreEntryCountsAsFailure(t *testing.T) {
	specs, err := tinyManifest(smokeSizes, 1, 1).Expand()
	if err != nil {
		t.Fatal(err)
	}
	o, err := executeRun(specs[0], nil, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if o.key, err = o.spec.Key(); err != nil {
		t.Fatal(err)
	}
	store, err := campaign.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(o.key, o.spec, o.res); err != nil {
		t.Fatal(err)
	}
	tl := &tally{}
	checkStored(tl, store, o)
	if tl.attempted != 1 || tl.failed != 0 {
		t.Fatalf("intact entry: attempted %d failed %d", tl.attempted, tl.failed)
	}
	path := filepath.Join(store.Root(), o.key, "result.canonical")
	if err := os.WriteFile(path, append([]byte("x"), o.canonical...), 0o644); err != nil {
		t.Fatal(err)
	}
	checkStored(tl, store, o)
	if tl.attempted != 2 || tl.failed != 1 || len(tl.notes) != 1 {
		t.Errorf("corrupted entry: attempted %d failed %d notes %v", tl.attempted, tl.failed, tl.notes)
	}
}

func TestProcParsing(t *testing.T) {
	// The command name may hold spaces and parentheses.
	stat := []byte("4242 (road (x) d) S 1 4242 4242 0 -1 4194560 903 0 0 0 164 61 0 0 20 0 9 0 100 1 2 3\n")
	cpu, err := parseStatCPU(stat)
	if err != nil || cpu != 2.25 {
		t.Errorf("parseStatCPU = %v, %v; want 2.25", cpu, err)
	}
	if _, err := parseStatCPU([]byte("garbage")); err == nil {
		t.Errorf("garbage stat line parsed")
	}
	if _, err := parseStatCPU([]byte("1 (x) S 1 2")); err == nil {
		t.Errorf("short stat line parsed")
	}
	mb, err := parseVmHWM([]byte("Name:\tx\nVmHWM:\t   23076 kB\nVmRSS:\t 1 kB\n"))
	if err != nil || math.Abs(mb-22.535) > 0.001 {
		t.Errorf("parseVmHWM = %v, %v", mb, err)
	}
	if _, err := parseVmHWM([]byte("Name:\tx\n")); err == nil {
		t.Errorf("status without VmHWM parsed")
	}
	if self, err := peakRSSMB(0); err != nil || self <= 0 {
		t.Errorf("own peak RSS = %v, %v", self, err)
	}
	if cpu, err := procCPU(os.Getpid()); err != nil || cpu < 0 {
		t.Errorf("own CPU = %v, %v", cpu, err)
	}
	if !memoryBacked("tmpfs") || !memoryBacked("ramfs") || memoryBacked("ext4") {
		t.Errorf("memoryBacked misjudges")
	}
}

// TestChildFailureIsReported: a child that exits at once surfaces as an
// error carrying its log, within the bounded wait.
func TestChildFailureIsReported(t *testing.T) {
	_, bin, _ := testDaemon(t)
	dir := t.TempDir()
	c, err := startChild("bad", bin, filepath.Join(dir, "bad.log"), "-no-such-flag")
	if err != nil {
		t.Fatal(err)
	}
	defer c.kill()
	err = waitFor(context.Background(), "bad child", bootTimeout, []*child{c}, func() bool { return false })
	if err == nil || !strings.Contains(err.Error(), "exited early") || !strings.Contains(err.Error(), "no-such-flag") {
		t.Errorf("waitFor = %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := waitFor(ctx, "cancelled", bootTimeout, nil, func() bool { return false }); err == nil {
		t.Errorf("waitFor ignored a cancelled context")
	}
	if c.exitedCPU() < 0 {
		t.Errorf("negative CPU")
	}
}
