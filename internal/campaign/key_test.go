package campaign

import (
	"bytes"
	"encoding/json"
	"testing"

	"roadrunner/internal/faults"
)

func tinySpec(seed uint64) RunSpec {
	cfg := TinyConfig()
	cfg.Seed = seed
	return RunSpec{
		Name:     "fedavg/tiny",
		Strategy: StrategySpec{Kind: "fedavg", Rounds: 2},
		Config:   cfg,
	}
}

func TestRunKeyStable(t *testing.T) {
	a, err := tinySpec(1).Key()
	if err != nil {
		t.Fatal(err)
	}
	b, err := tinySpec(1).Key()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("identical specs hash differently: %s vs %s", a, b)
	}
	if len(a) != 64 {
		t.Fatalf("key %q is not a sha256 hex digest", a)
	}
}

func TestRunKeyIgnoresLabelsAndEvalWorkers(t *testing.T) {
	base, err := tinySpec(1).Key()
	if err != nil {
		t.Fatal(err)
	}
	renamed := tinySpec(1)
	renamed.Name = "renamed/run"
	rk, err := renamed.Key()
	if err != nil {
		t.Fatal(err)
	}
	if rk != base {
		t.Fatal("run label changed the content address")
	}
	// A spec journaled before the eval_workers knob was deleted still
	// carries it in its config; decoded today it keys to the same run.
	data, err := json.Marshal(tinySpec(1))
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Replace(data, []byte(`"seed":1,`), []byte(`"seed":1,"eval_workers":8,`), 1)
	if bytes.Equal(old, data) {
		t.Fatal("the spec JSON has no seed field to splice eval_workers beside")
	}
	var decoded RunSpec
	if err := json.Unmarshal(old, &decoded); err != nil {
		t.Fatal(err)
	}
	dk, err := decoded.Key()
	if err != nil {
		t.Fatal(err)
	}
	if dk != base {
		t.Fatal("a spec carrying eval_workers decoded to a different content address")
	}
}

func TestRunKeySeparatesRuns(t *testing.T) {
	base, err := tinySpec(1).Key()
	if err != nil {
		t.Fatal(err)
	}

	seeded := tinySpec(2)
	sk, err := seeded.Key()
	if err != nil {
		t.Fatal(err)
	}
	if sk == base {
		t.Fatal("seed change kept the same content address")
	}

	otherStrat := tinySpec(1)
	otherStrat.Strategy = StrategySpec{Kind: "opp", Rounds: 2}
	ok, err := otherStrat.Key()
	if err != nil {
		t.Fatal(err)
	}
	if ok == base {
		t.Fatal("strategy change kept the same content address")
	}

	faulted := tinySpec(1)
	plan, err := faults.ScenarioPlan(faults.ScenarioBlackout, DefaultScenarioSpan)
	if err != nil {
		t.Fatal(err)
	}
	faulted.Config.Faults = &plan
	fk, err := faulted.Key()
	if err != nil {
		t.Fatal(err)
	}
	if fk == base {
		t.Fatal("fault plan kept the same content address")
	}
}

func TestCanonicalBytesVersioned(t *testing.T) {
	b, err := tinySpec(1).CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(b, []byte(keyFormatVersion)) {
		t.Fatalf("canonical spec bytes lack the format version prefix:\n%s", b[:80])
	}
}
