package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"roadrunner/internal/faults"
)

// snapshotLines returns a snapshot file's records split by op.
func snapshotLines(t *testing.T, path string) map[string][]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	byOp := map[string][]string{}
	for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		op, _, _ := strings.Cut(strings.TrimPrefix(line, `{"op":"`), `"`)
		byOp[op] = append(byOp[op], line)
	}
	return byOp
}

// inlineFixtureManifest is the manifest queue_snapshot_inline_6c84408 was
// built from: 2 strategies × 2 seeds × 2 scenarios, four templates.
func inlineFixtureManifest() Manifest {
	return Manifest{
		Name: "fixture", Env: EnvTiny, Rounds: 2,
		Strategies: []StrategySpec{{Kind: "fedavg"}, {Kind: "opp"}},
		Seeds:      []uint64{1, 2},
		Scenarios:  []string{ScenarioFaultFree, faults.ScenarioBlackout},
	}
}

// TestQueueOpensSnapshotWrittenWithInlineSpecs is the compatibility proof
// for the template snapshot format: testdata holds a snapshot and its log
// tail that the parent build (6c84408), whose snap-ref rows each inline a
// spec, wrote from the eight refs of inlineFixtureManifest. That build
// enqueued them in one batch; claimed, started and completed refs 0–2 (0
// and 1 done, 2 failed); retried ref 2; compacted; then claimed and
// started refs 3 and 4 (leases 3 and 4) and completed ref 3. The fixture
// must open to the state that build left, and the next compaction must
// rewrite it with snap-spec templates and reopen to the same state.
func TestQueueOpensSnapshotWrittenWithInlineSpecs(t *testing.T) {
	specs, err := inlineFixtureManifest().Expand()
	if err != nil {
		t.Fatal(err)
	}
	items := batchItems(t, specs)
	open := func() (*Queue, string) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "queue.jsonl")
		for from, to := range map[string]string{
			"queue_snapshot_inline_6c84408.jsonl":      path,
			"queue_snapshot_inline_6c84408.snap.jsonl": queueSnapshotPath(path),
		} {
			data, err := os.ReadFile(filepath.Join("testdata", from))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(to, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		q, err := OpenQueue(path)
		if err != nil {
			t.Fatal(err)
		}
		return q, path
	}
	wantPending := []QueueItem{items[4], items[5], items[6], items[7], items[2]}
	wantDone := map[string]RunState{items[0].Ref: RunDone, items[1].Ref: RunDone, items[3].Ref: RunDone}
	check := func(q *Queue) {
		t.Helper()
		if pending, leased := q.Depth(); pending != len(wantPending) || leased != 0 {
			t.Fatalf("depth %d pending %d leased, want %d 0", pending, leased, len(wantPending))
		}
		_, done := queueObservable(t, q, items)
		if !reflect.DeepEqual(done, wantDone) {
			t.Fatalf("done %v, want %v", done, wantDone)
		}
		if got := q.Pending(); !reflect.DeepEqual(got, wantPending) {
			t.Fatalf("pending:\ngot  %+v\nwant %+v", got, wantPending)
		}
		if !q.ReplayStats().UsedSnapshot || q.Gen() == 0 {
			t.Fatalf("opened without the snapshot: gen %d %+v", q.Gen(), q.ReplayStats())
		}
	}
	nextLease := func(q *Queue) LeaseID {
		t.Helper()
		lease, _, err := claim1(q, wantPending[0].Ref, "w9", 100, 5)
		if err != nil {
			t.Fatal(err)
		}
		return lease.ID
	}

	q, path := open()
	byOp := snapshotLines(t, queueSnapshotPath(path))
	if len(byOp["snap-spec"]) != 0 || len(byOp["snap-ref"]) != len(items) || !strings.Contains(byOp["snap-ref"][0], `"spec":`) {
		t.Fatalf("fixture is not an inline-spec snapshot of %d refs: %d snap-spec, %d snap-ref", len(items), len(byOp["snap-spec"]), len(byOp["snap-ref"]))
	}
	check(q)
	if err := q.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	byOp = snapshotLines(t, queueSnapshotPath(path))
	if len(byOp["snap-spec"]) != 4 || len(byOp["snap-ref"]) != len(items) {
		t.Fatalf("rewritten snapshot holds %d snap-spec and %d snap-ref records, want 4 and %d", len(byOp["snap-spec"]), len(byOp["snap-ref"]), len(items))
	}
	for _, row := range byOp["snap-ref"] {
		if strings.Contains(row, `"spec":`) {
			t.Fatalf("rewritten row still inlines its spec: %s", row)
		}
	}
	q2, err := OpenQueue(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = q2.Close() }()
	check(q2)
	if id := nextLease(q2); id != 5 {
		t.Fatalf("next lease after compaction %d, want 5", id)
	}
	q3, _ := open()
	defer func() { _ = q3.Close() }()
	if id := nextLease(q3); id != 5 {
		t.Fatalf("next lease of the fixture %d, want 5", id)
	}
}

// hostileSnapshots are malformed template snapshots; each must be refused
// as corruption, never panic. FuzzQueueSnapshot starts from them too.
var hostileSnapshots = []struct{ name, data string }{
	{"negative template index", `{"op":"snap-begin","gen":1,"count":1}
{"op":"snap-spec","spec":{}}
{"op":"snap-ref","ref":"r","key":"k","tmpl":-1}
{"op":"snap-end","count":1}
`},
	{"out-of-range template index", `{"op":"snap-begin","gen":1,"count":1}
{"op":"snap-spec","spec":{}}
{"op":"snap-ref","ref":"r","key":"k","tmpl":1}
{"op":"snap-end","count":1}
`},
	{"forward template index", `{"op":"snap-begin","gen":1,"count":1}
{"op":"snap-ref","ref":"r","key":"k","tmpl":0}
{"op":"snap-spec","spec":{}}
{"op":"snap-end","count":1}
`},
	{"row without spec or template", `{"op":"snap-begin","gen":1,"count":1}
{"op":"snap-spec","spec":{}}
{"op":"snap-ref","ref":"r","key":"k","seed":3}
{"op":"snap-end","count":1}
`},
	{"row with spec and template", `{"op":"snap-begin","gen":1,"count":1}
{"op":"snap-spec","spec":{}}
{"op":"snap-ref","ref":"r","key":"k","tmpl":0,"spec":{}}
{"op":"snap-end","count":1}
`},
	{"snap-spec without spec", `{"op":"snap-begin","gen":1,"count":1}
{"op":"snap-spec"}
{"op":"snap-ref","ref":"r","key":"k","tmpl":0}
{"op":"snap-end","count":1}
`},
	{"snap-spec after snap-end", `{"op":"snap-begin","gen":1,"count":1}
{"op":"snap-spec","spec":{}}
{"op":"snap-ref","ref":"r","key":"k","tmpl":0}
{"op":"snap-end","count":1}
{"op":"snap-spec","spec":{}}
`},
}

// templateSnapshot is a well-formed snapshot in the template format: two
// rows over one template, one done.
const templateSnapshot = `{"op":"snap-begin","gen":1,"next":4,"count":2}
{"op":"snap-spec","spec":{"name":"","strategy":{"kind":"fedavg"},"config":{"seed":0}}}
{"op":"snap-ref","ref":"r1","key":"k1","state":"done","tmpl":0,"seed":7,"name":"a"}
{"op":"snap-ref","ref":"r2","key":"k2","tmpl":0}
{"op":"snap-end","count":2}
`

func TestQueueSnapshotRefusesHostileTemplates(t *testing.T) {
	for _, tc := range hostileSnapshots {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "queue.jsonl")
			if err := os.WriteFile(queueSnapshotPath(path), []byte(tc.data), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadQueueSnapshot(queueSnapshotPath(path)); err == nil {
				t.Fatal("ReadQueueSnapshot accepted it")
			}
			if q, err := OpenQueue(path); err == nil {
				_ = q.Close()
				t.Fatal("OpenQueue accepted it")
			}
		})
	}
	path := filepath.Join(t.TempDir(), "queue.snap.jsonl")
	if err := os.WriteFile(path, []byte(templateSnapshot), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadQueueSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []QueueItem{
		{Ref: "r1", Key: "k1", Spec: RunSpec{Name: "a", Strategy: StrategySpec{Kind: "fedavg"}}},
		{Ref: "r2", Key: "k2", Spec: RunSpec{Strategy: StrategySpec{Kind: "fedavg"}}},
	}
	want[0].Spec.Config.Seed = 7
	if !reflect.DeepEqual(snap.Items, want) || snap.Next != 4 || !reflect.DeepEqual(snap.Done, map[string]RunState{"r1": RunDone}) {
		t.Fatalf("decoded %+v", snap)
	}
}

// TestQueueSnapshotTemplatesRoundTrip compacts a queue over eight
// templates (2 strategies × 2 scenarios × 2 overrides) and four seeds,
// seed 0 among them, plus a retry that moves a ref onto a ninth template,
// and checks the snapshot decodes to exactly the queue's known items.
// Rebuilt specs share their template's Faults and Layers, so two runs
// rebuilt from one template are executed and held to fresh Expand specs:
// a write through the shared fields would show as a byte difference.
func TestQueueSnapshotTemplatesRoundTrip(t *testing.T) {
	m := Manifest{
		Name: "templates", Env: EnvTiny, Rounds: 2,
		Strategies: []StrategySpec{{Kind: "fedavg"}, {Kind: "opp"}},
		Seeds:      []uint64{0, 1, 2, 3},
		Scenarios:  []string{ScenarioFaultFree, faults.ScenarioBlackout},
		Overrides:  []Override{{Name: "base"}, {Name: "dense", V2XRangeM: ptrF(400)}},
	}
	specs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	items := batchItems(t, specs)
	path := filepath.Join(t.TempDir(), "queue.jsonl")
	q, err := OpenQueueWithOptions(path, QueueOptions{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = q.Close() }()
	if err := q.EnqueueBatch(items); err != nil {
		t.Fatal(err)
	}
	for i, state := range []RunState{RunDone, RunFailed, RunDone} {
		lease, _, err := claim1(q, items[i].Ref, "w1", 0, 5)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := start1(q, lease.ID); err != nil {
			t.Fatal(err)
		}
		if _, err := complete1(q, lease.ID, state); err != nil {
			t.Fatal(err)
		}
	}
	retried := items[1].Spec
	retried.Strategy.Rounds = 3
	retryKey, err := retried.Key()
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Retry(items[1].Ref, retryKey, retried); err != nil {
		t.Fatal(err)
	}
	if err := q.Compact(); err != nil {
		t.Fatal(err)
	}

	snap, err := ReadQueueSnapshot(q.snapPath)
	if err != nil {
		t.Fatal(err)
	}
	var known []QueueItem
	for _, ref := range q.knownOrder {
		if ref != "" {
			known = append(known, q.itemOf[ref])
		}
	}
	if !reflect.DeepEqual(snap.Items, known) {
		t.Fatalf("snapshot items differ from the queue's known items:\nsnap  %+v\nqueue %+v", snap.Items, known)
	}
	if !reflect.DeepEqual(snap.Done, q.done) || snap.Next != q.next {
		t.Fatalf("snapshot done %v next %d, queue %v %d", snap.Done, snap.Next, q.done, q.next)
	}
	for _, it := range snap.Items {
		if key, err := it.Spec.Key(); err != nil || key != it.Key {
			t.Fatalf("%s: rebuilt spec keys to %s (%v), row says %s", it.Ref, key, err, it.Key)
		}
	}
	if n := len(snapshotLines(t, q.snapPath)["snap-spec"]); n != 9 {
		t.Fatalf("snapshot holds %d templates, want 8 cells + 1 retried", n)
	}

	// Refs 2 and 6 are fedavg/blackout/base at seeds 0 and 1: one template.
	byRef := map[string]RunSpec{}
	for _, it := range snap.Items {
		byRef[it.Ref] = it.Spec
	}
	pair := []int{2, 6}
	a, b := byRef[items[pair[0]].Ref], byRef[items[pair[1]].Ref]
	if a.Config.Faults == nil || a.Config.Faults != b.Config.Faults || &a.Config.Model.Layers[0] != &b.Config.Model.Layers[0] {
		t.Fatalf("%s and %s do not share their template's Faults and Layers", a.Name, b.Name)
	}
	var got [][]byte
	for _, spec := range []RunSpec{a, b} {
		res, err := spec.Execute()
		if err != nil {
			t.Fatal(err)
		}
		out, err := res.CanonicalBytes()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, out)
	}
	fresh, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for k, i := range pair {
		res, err := fresh[i].Execute()
		if err != nil {
			t.Fatal(err)
		}
		want, err := res.CanonicalBytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[k], want) {
			t.Fatalf("%s: rebuilt spec's canonical bytes differ from a fresh Expand's", fresh[i].Name)
		}
	}
}
