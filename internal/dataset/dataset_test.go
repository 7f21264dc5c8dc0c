package dataset

import (
	"math"
	"testing"

	"roadrunner/internal/ml"
	"roadrunner/internal/sim"
)

func smallConfig() Config {
	return Config{Classes: 4, H: 8, W: 8, C: 2, NoiseStd: 0.4, MaxShift: 1, Components: 3}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Classes = 1 },
		func(c *Config) { c.H = 0 },
		func(c *Config) { c.W = -1 },
		func(c *Config) { c.C = 0 },
		func(c *Config) { c.NoiseStd = -0.1 },
		func(c *Config) { c.MaxShift = -1 },
		func(c *Config) { c.MaxShift = c.H },
		func(c *Config) { c.Components = 0 },
	}
	for i, mutate := range mutations {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d validated", i)
		}
	}
}

func TestNewGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(Config{}, sim.NewRNG(1)); err == nil {
		t.Fatal("zero config accepted")
	}
	if _, err := NewGenerator(smallConfig(), nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}

func TestSampleShapeAndLabel(t *testing.T) {
	g, err := NewGenerator(smallConfig(), sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(2)
	for class := 0; class < 4; class++ {
		ex, err := g.Sample(class, rng)
		if err != nil {
			t.Fatalf("Sample(%d): %v", class, err)
		}
		if len(ex.X) != g.Config().Dim() {
			t.Fatalf("sample dim = %d, want %d", len(ex.X), g.Config().Dim())
		}
		if ex.Label != class {
			t.Fatalf("label = %d, want %d", ex.Label, class)
		}
		for i, v := range ex.X {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("pixel %d is %v", i, v)
			}
		}
	}
	if _, err := g.Sample(-1, rng); err == nil {
		t.Fatal("negative class accepted")
	}
	if _, err := g.Sample(4, rng); err == nil {
		t.Fatal("out-of-range class accepted")
	}
	if _, err := g.Sample(0, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}

// TestSampleMatchesPerPixelShift pins Sample to its definition — pixel
// (y, x) is the prototype at ((y+dy) mod H, (x+dx) mod W), scaled, plus one
// noise draw per pixel in output order — over every shift a non-square,
// multi-channel shape can draw, so the hoisted wrap-around cannot drift.
func TestSampleMatchesPerPixelShift(t *testing.T) {
	cfg := Config{Classes: 3, H: 5, W: 7, C: 2, NoiseStd: 0.7, MaxShift: 4, Components: 2}
	g, err := NewGenerator(cfg, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	got, ref := sim.NewRNG(9), sim.NewRNG(9)
	shifts := map[[2]int]bool{}
	for n := 0; n < 400; n++ {
		class := n % cfg.Classes
		ex, err := g.Sample(class, got)
		if err != nil {
			t.Fatal(err)
		}
		dx := ref.Intn(2*cfg.MaxShift+1) - cfg.MaxShift
		dy := ref.Intn(2*cfg.MaxShift+1) - cfg.MaxShift
		shifts[[2]int{dx, dy}] = true
		brightness := float32(ref.Range(0.8, 1.2))
		for ch := 0; ch < cfg.C; ch++ {
			for y := 0; y < cfg.H; y++ {
				for x := 0; x < cfg.W; x++ {
					src := ch*cfg.H*cfg.W + mod(y+dy, cfg.H)*cfg.W + mod(x+dx, cfg.W)
					want := g.protos[class][src]*brightness + float32(ref.NormFloat64()*cfg.NoiseStd)
					if v := ex.X[ch*cfg.H*cfg.W+y*cfg.W+x]; v != want {
						t.Fatalf("sample %d shift (%d,%d) pixel (%d,%d,%d) = %v, want %v", n, dx, dy, ch, y, x, v, want)
					}
				}
			}
		}
	}
	if want := (2*cfg.MaxShift + 1) * (2*cfg.MaxShift + 1); len(shifts) != want {
		t.Fatalf("covered %d of %d shifts", len(shifts), want)
	}
}

func TestSamplesVaryWithinClass(t *testing.T) {
	g, err := NewGenerator(smallConfig(), sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(3)
	a, err := g.Sample(0, rng)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Sample(0, rng)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.X {
		if a.X[i] != b.X[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two draws of the same class are identical; noise/augmentation missing")
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	mk := func() ml.Example {
		g, err := NewGenerator(smallConfig(), sim.NewRNG(5))
		if err != nil {
			t.Fatal(err)
		}
		ex, err := g.Sample(2, sim.NewRNG(6))
		if err != nil {
			t.Fatal(err)
		}
		return ex
	}
	a, b := mk(), mk()
	for i := range a.X {
		if a.X[i] != b.X[i] {
			t.Fatal("identically seeded generators produced different samples")
		}
	}
}

func TestBalancedCounts(t *testing.T) {
	g, err := NewGenerator(smallConfig(), sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	pool, err := g.Balanced(42, sim.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	hist := ClassHistogram(pool, 4)
	// 42 = 4*10 + 2: classes 0,1 get 11, classes 2,3 get 10.
	want := []int{11, 11, 10, 10}
	for c, n := range hist {
		if n != want[c] {
			t.Fatalf("class %d count = %d, want %d (hist %v)", c, n, want[c], hist)
		}
	}
	if _, err := g.Balanced(0, sim.NewRNG(2)); err == nil {
		t.Fatal("zero count accepted")
	}
}

func TestClassesAreLearnable(t *testing.T) {
	// A central MLP must comfortably separate the synthetic classes —
	// this is the property that makes accuracy metrics meaningful.
	cfg := smallConfig()
	g, err := NewGenerator(cfg, sim.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(12)
	train, err := g.Balanced(400, rng)
	if err != nil {
		t.Fatal(err)
	}
	test, err := g.Balanced(200, rng)
	if err != nil {
		t.Fatal(err)
	}
	net, err := ml.NewNetwork(ml.MLPSpec(cfg.Dim(), []int{32}, cfg.Classes), rng.Fork("init"))
	if err != nil {
		t.Fatal(err)
	}
	tc := ml.TrainConfig{Epochs: 10, BatchSize: 16, LR: 0.03, Momentum: 0.9}
	if _, err := net.Train(train, tc, rng.Fork("train")); err != nil {
		t.Fatal(err)
	}
	acc, _, err := net.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.7 {
		t.Fatalf("central accuracy = %v, want >= 0.7 (chance = 0.25)", acc)
	}
}

func TestPartitionConfigValidate(t *testing.T) {
	if err := DefaultPartitionConfig().Validate(); err != nil {
		t.Fatalf("default partition config invalid: %v", err)
	}
	bad := []PartitionConfig{
		{Scheme: SchemeIID, PerAgent: 0},
		{Scheme: SchemeShards, PerAgent: 80, ShardsPerAgent: 0},
		{Scheme: SchemeShards, PerAgent: 80, ShardsPerAgent: 3},
		{Scheme: SchemeDirichlet, PerAgent: 80, Alpha: 0},
		{Scheme: Scheme(99), PerAgent: 80},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad partition config %d validated", i)
		}
	}
}

func makePool(t *testing.T, n int) []ml.Example {
	t.Helper()
	g, err := NewGenerator(smallConfig(), sim.NewRNG(20))
	if err != nil {
		t.Fatal(err)
	}
	pool, err := g.Balanced(n, sim.NewRNG(21))
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

func TestPartitionIIDBalanced(t *testing.T) {
	pool := makePool(t, 800)
	parts, err := Partition(pool, 8, PartitionConfig{Scheme: SchemeIID, PerAgent: 40}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 8 {
		t.Fatalf("got %d parts", len(parts))
	}
	for a, p := range parts {
		if len(p) != 40 {
			t.Fatalf("agent %d got %d samples", a, len(p))
		}
		hist := ClassHistogram(p, 4)
		for c, n := range hist {
			if n == 0 {
				t.Fatalf("agent %d has zero samples of class %d under IID: %v", a, c, hist)
			}
		}
	}
}

func TestPartitionShardsSkewed(t *testing.T) {
	pool := makePool(t, 800)
	parts, err := Partition(pool, 10, PartitionConfig{Scheme: SchemeShards, PerAgent: 80, ShardsPerAgent: 2}, sim.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	for a, p := range parts {
		if len(p) != 80 {
			t.Fatalf("agent %d got %d samples", a, len(p))
		}
		hist := ClassHistogram(p, 4)
		nonzero := 0
		for _, n := range hist {
			if n > 0 {
				nonzero++
			}
		}
		// Two shards can span at most 3 classes (if a shard straddles a
		// class boundary); high skew means far fewer than all 4.
		if nonzero > 3 {
			t.Fatalf("agent %d sees %d classes (%v); shards split is not skewed", a, nonzero, hist)
		}
	}
}

func TestPartitionNoDuplication(t *testing.T) {
	pool := makePool(t, 400)
	for _, scheme := range []PartitionConfig{
		{Scheme: SchemeIID, PerAgent: 40},
		{Scheme: SchemeShards, PerAgent: 40, ShardsPerAgent: 2},
		{Scheme: SchemeDirichlet, PerAgent: 40, Alpha: 0.5},
	} {
		parts, err := Partition(pool, 10, scheme, sim.NewRNG(3))
		if err != nil {
			t.Fatalf("%v: %v", scheme.Scheme, err)
		}
		seen := map[*float32]bool{} // identity via backing-array pointer
		total := 0
		for _, p := range parts {
			for _, ex := range p {
				key := &ex.X[0]
				if seen[key] {
					t.Fatalf("%v: sample duplicated across agents", scheme.Scheme)
				}
				seen[key] = true
				total++
			}
		}
		if total != 400 {
			t.Fatalf("%v: distributed %d samples, want 400", scheme.Scheme, total)
		}
	}
}

func TestPartitionDirichletSkewVariesWithAlpha(t *testing.T) {
	pool := makePool(t, 2000)
	maxFrac := func(alpha float64) float64 {
		parts, err := Partition(pool, 10, PartitionConfig{Scheme: SchemeDirichlet, PerAgent: 100, Alpha: alpha}, sim.NewRNG(4))
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, p := range parts {
			hist := ClassHistogram(p, 4)
			best := 0
			for _, n := range hist {
				if n > best {
					best = n
				}
			}
			sum += float64(best) / float64(len(p))
		}
		return sum / float64(len(parts))
	}
	lowAlpha := maxFrac(0.1) // highly skewed
	highAlpha := maxFrac(50) // nearly uniform
	if lowAlpha <= highAlpha {
		t.Fatalf("dominant-class fraction: alpha=0.1 gives %v, alpha=50 gives %v; want skew to grow as alpha shrinks",
			lowAlpha, highAlpha)
	}
	if highAlpha > 0.5 {
		t.Fatalf("alpha=50 dominant-class fraction = %v, want near 1/classes", highAlpha)
	}
}

func TestPartitionValidatesInputs(t *testing.T) {
	pool := makePool(t, 100)
	good := PartitionConfig{Scheme: SchemeIID, PerAgent: 10}
	if _, err := Partition(pool, 0, good, sim.NewRNG(1)); err == nil {
		t.Fatal("zero agents accepted")
	}
	if _, err := Partition(pool, 5, good, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
	if _, err := Partition(pool, 11, good, sim.NewRNG(1)); err == nil {
		t.Fatal("undersized pool accepted")
	}
	if _, err := Partition(pool, 2, PartitionConfig{}, sim.NewRNG(1)); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestPartitionDeterministic(t *testing.T) {
	pool := makePool(t, 400)
	cfg := PartitionConfig{Scheme: SchemeShards, PerAgent: 40, ShardsPerAgent: 2}
	a, err := Partition(pool, 10, cfg, sim.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Partition(pool, 10, cfg, sim.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	for ai := range a {
		for i := range a[ai] {
			if a[ai][i].Label != b[ai][i].Label {
				t.Fatal("identically seeded partitions differ")
			}
		}
	}
}

func TestSchemeString(t *testing.T) {
	for s, want := range map[Scheme]string{
		SchemeIID: "iid", SchemeShards: "shards", SchemeDirichlet: "dirichlet",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
	}
	if Scheme(0).String() != "unknown(0)" {
		t.Errorf("Scheme(0).String() = %q", Scheme(0).String())
	}
}

func TestClassHistogramIgnoresOutOfRange(t *testing.T) {
	h := ClassHistogram([]ml.Example{{Label: 0}, {Label: 5}, {Label: -1}}, 2)
	if h[0] != 1 || h[1] != 0 {
		t.Fatalf("histogram = %v", h)
	}
}

func TestGammaDrawPositive(t *testing.T) {
	rng := sim.NewRNG(31)
	for _, shape := range []float64{0.1, 0.5, 1, 2, 10} {
		for i := 0; i < 200; i++ {
			if g := gammaDraw(rng, shape); g < 0 || math.IsNaN(g) {
				t.Fatalf("gammaDraw(%v) = %v", shape, g)
			}
		}
	}
}

func TestGammaDrawMean(t *testing.T) {
	// Gamma(shape, 1) has mean = shape.
	rng := sim.NewRNG(32)
	const n = 20000
	for _, shape := range []float64{0.5, 2} {
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += gammaDraw(rng, shape)
		}
		mean := sum / n
		if math.Abs(mean-shape)/shape > 0.05 {
			t.Fatalf("gamma mean for shape %v = %v", shape, mean)
		}
	}
}

func TestDirichletSumsToOne(t *testing.T) {
	rng := sim.NewRNG(33)
	for _, alpha := range []float64{0.1, 1, 10} {
		v := dirichlet(rng, 6, alpha)
		sum := 0.0
		for _, x := range v {
			if x < 0 {
				t.Fatalf("negative dirichlet component %v", x)
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("dirichlet sums to %v", sum)
		}
	}
}

func BenchmarkSample(b *testing.B) {
	g, err := NewGenerator(DefaultConfig(), sim.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Sample(i%10, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoolWalk walks a fleet-sim sized pool (DefaultConfig, 80 000
// examples: 1 000 vehicles × 80) and reports the cost per normal draw the
// walk skips, the walk's dominant work.
func BenchmarkPoolWalk(b *testing.B) {
	const n = 80_000
	g, err := NewGenerator(DefaultConfig(), sim.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Walk(n, rng); err != nil {
			b.Fatal(err)
		}
	}
	draws := float64(b.N) * n * float64(DefaultConfig().Dim())
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/draws, "ns/draw")
}
