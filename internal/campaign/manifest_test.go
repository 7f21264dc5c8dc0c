package campaign

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"roadrunner/internal/faults"
	"roadrunner/internal/strategy"
)

func tinyManifest() Manifest {
	return Manifest{
		Name:       "smoke",
		Env:        EnvTiny,
		Rounds:     2,
		Strategies: []StrategySpec{{Kind: "fedavg"}, {Kind: "opp"}},
		Seeds:      []uint64{1},
	}
}

func TestManifestExpandCrossProduct(t *testing.T) {
	m := Manifest{
		Name:       "grid",
		Env:        EnvTiny,
		Rounds:     2,
		Strategies: []StrategySpec{{Kind: "fedavg"}, {Kind: "opp"}},
		Seeds:      []uint64{1, 2, 3},
		Scenarios:  []string{ScenarioFaultFree, faults.ScenarioBlackout},
		Overrides: []Override{
			{Name: "base"},
			{Name: "dense", V2XRangeM: ptrF(400)},
		},
	}
	specs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 3 * 2 * 2; len(specs) != want {
		t.Fatalf("expanded %d specs, want %d", len(specs), want)
	}
	seen := make(map[string]bool)
	for _, spec := range specs {
		if seen[spec.Name] {
			t.Fatalf("duplicate run name %q", spec.Name)
		}
		seen[spec.Name] = true
		if strings.Contains(spec.Name, faults.ScenarioBlackout) {
			if spec.Config.Faults == nil || spec.Config.Faults.Empty() {
				t.Fatalf("run %q: blackout scenario expanded without a fault plan", spec.Name)
			}
		} else if spec.Config.Faults != nil {
			t.Fatalf("run %q: fault-free scenario carries a fault plan", spec.Name)
		}
		if strings.Contains(spec.Name, "dense") && spec.Config.Comm.V2X.RangeM != 400 {
			t.Fatalf("run %q: override not applied (range %v)", spec.Name, spec.Config.Comm.V2X.RangeM)
		}
	}
}

func TestManifestExpandDeterministic(t *testing.T) {
	m := tinyManifest()
	a, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("expansion sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		ka, err := a[i].Key()
		if err != nil {
			t.Fatal(err)
		}
		kb, err := b[i].Key()
		if err != nil {
			t.Fatal(err)
		}
		if a[i].Name != b[i].Name || ka != kb {
			t.Fatalf("expansion %d differs: %q/%s vs %q/%s", i, a[i].Name, ka, b[i].Name, kb)
		}
	}
}

func TestManifestValidateRejects(t *testing.T) {
	cases := map[string]func(*Manifest){
		"no name":         func(m *Manifest) { m.Name = "" },
		"no strategies":   func(m *Manifest) { m.Strategies = nil },
		"no seeds":        func(m *Manifest) { m.Seeds = nil },
		"bad env":         func(m *Manifest) { m.Env = "mars" },
		"bad strategy":    func(m *Manifest) { m.Strategies = []StrategySpec{{Kind: "nope"}} },
		"bad scenario":    func(m *Manifest) { m.Scenarios = []string{"earthquake"} },
		"negative rounds": func(m *Manifest) { m.Rounds = -1 },
		"unnamed override": func(m *Manifest) {
			m.Overrides = []Override{{V2XRangeM: ptrF(100)}}
		},
		"rsu on an env without RSUs": func(m *Manifest) {
			m.Env = EnvSmall
			m.Strategies = []StrategySpec{{Kind: "rsu"}}
		},
		"rsu-assisted on the default env": func(m *Manifest) {
			m.Env = EnvDefault
			m.Strategies = []StrategySpec{{Kind: "rsu-assisted"}}
		},
		"rsu with an override removing the RSUs": func(m *Manifest) {
			m.Strategies = []StrategySpec{{Kind: "rsu"}}
			m.Overrides = []Override{{Name: "two", RSUCount: ptrI(2)}, {Name: "none", RSUCount: ptrI(0)}}
		},
	}
	for name, mutate := range cases {
		m := tinyManifest()
		mutate(&m)
		if err := m.Validate(); err == nil {
			t.Fatalf("%s: manifest accepted", name)
		}
	}
	good := tinyManifest()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	rsu := Manifest{Name: "rsu", Env: EnvSmall, Strategies: []StrategySpec{{Kind: "rsu"}}, Seeds: []uint64{1},
		Overrides: []Override{{Name: "two", RSUCount: ptrI(2)}}}
	if err := rsu.Validate(); err != nil {
		t.Fatalf("rsu manifest whose override adds RSUs rejected: %v", err)
	}
}

func TestStrategySpecBuildKnownKinds(t *testing.T) {
	for kind, want := range map[string]string{
		"fedavg":        "fedavg",
		"base":          "fedavg",
		"opp":           "opportunistic",
		"opportunistic": "opportunistic",
		"gossip":        "gossip",
		"centralized":   "centralized",
		"hybrid":        "hybrid",
		"rsu":           "rsu-assisted",
		"rsu-assisted":  "rsu-assisted",
	} {
		s, err := StrategySpec{Kind: kind, Rounds: 3}.Build()
		if err != nil {
			t.Fatalf("build %q: %v", kind, err)
		}
		if s.Name() != want {
			t.Fatalf("build %q: name %q, want %q", kind, s.Name(), want)
		}
	}
	if _, err := (StrategySpec{Kind: "nope"}).Build(); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := (StrategySpec{Kind: "fedavg", Rounds: -1}).Build(); err == nil {
		t.Fatal("negative rounds accepted")
	}
}

// TestStrategySpecOppParams checks the two OPP-only parameters: they reach
// the strategy, they are rejected when negative or set on another kind
// (so a manifest carrying them fails validation), and leaving them unset
// keeps the spec's encoding, and so every existing run key, unchanged.
func TestStrategySpecOppParams(t *testing.T) {
	built, err := StrategySpec{Kind: "opp", Rounds: 3, RoundDurationS: 50, Reporters: 20}.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := strategy.DefaultOppConfig()
	want.Rounds, want.RoundDuration, want.Reporters = 3, 50, 20
	if got := built.(*strategy.Opportunistic).Config(); got != want {
		t.Fatalf("built config %+v, want %+v", got, want)
	}
	for name, s := range map[string]StrategySpec{
		"negative duration":  {Kind: "opp", RoundDurationS: -1},
		"NaN duration":       {Kind: "opp", RoundDurationS: math.NaN()},
		"negative reporters": {Kind: "opp", Reporters: -3},
		"duration on fedavg": {Kind: "fedavg", RoundDurationS: 50},
		"reporters on rsu":   {Kind: "rsu", Reporters: 2},
		"reporters on base":  {Kind: "base", Reporters: 2},
	} {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: %+v accepted", name, s)
		}
		m := tinyManifest()
		m.Strategies = []StrategySpec{s}
		if _, err := m.Expand(); err == nil {
			t.Errorf("%s: manifest accepted", name)
		}
	}
	raw, err := json.Marshal(StrategySpec{Kind: "opp", Rounds: 75})
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != `{"kind":"opp","rounds":75}` {
		t.Fatalf("unset OPP parameters changed the encoding: %s", raw)
	}
}

func ptrF(v float64) *float64 { return &v }
func ptrI(v int) *int         { return &v }
