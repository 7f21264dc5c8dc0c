// Package dataset is Roadrunner's data-preprocessing module (paper §4): it
// provides the data residing on each simulated agent. It generates a
// synthetic multi-class image dataset and splits it into per-agent subsets
// "according to a predefined distribution", plus a test set for the
// simulated cloud server.
//
// Substitution note: the paper trains on CIFAR-10 (60 000 32x32 color
// images, 10 classes). This package generates a statistically learnable
// stand-in — each class is a smooth random prototype image, and samples are
// brightness-scaled, translated, noisy variants — with the same 10-class
// structure and the paper's "highly skewed distribution of classes in which
// every vehicle holds 80 samples". What the evaluation depends on is not
// the pixels but the learning dynamics: accuracy grows with aggregated
// contributions, and skewed local distributions hurt models trained on few
// vehicles. Both are preserved (and tested) here.
package dataset

import (
	"fmt"
	"math"

	"roadrunner/internal/ml"
	"roadrunner/internal/sim"
)

// Config describes the synthetic image distribution.
type Config struct {
	// Classes is the number of classes (the paper's task has 10).
	Classes int `json:"classes"`
	// H, W, C are the image dimensions (channel-major layout, C planes of
	// H x W), matching internal/ml's convolution layout.
	H int `json:"h"`
	W int `json:"w"`
	C int `json:"c"`
	// NoiseStd is the per-pixel Gaussian noise added to every sample.
	NoiseStd float64 `json:"noise_std"`
	// MaxShift is the maximum translation (pixels, each axis, wrapping)
	// applied per sample.
	MaxShift int `json:"max_shift"`
	// Components is the number of sinusoidal components per prototype
	// channel; more components make classes harder to separate.
	Components int `json:"components"`
}

// DefaultConfig is the evaluation dataset: 10 classes of 16x16 RGB images
// (a compute-scaled stand-in for CIFAR-10's 32x32).
func DefaultConfig() Config {
	return Config{Classes: 10, H: 16, W: 16, C: 3, NoiseStd: 1.5, MaxShift: 3, Components: 4}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Classes < 2:
		return fmt.Errorf("dataset: need at least 2 classes, got %d", c.Classes)
	case c.H <= 0 || c.W <= 0 || c.C <= 0:
		return fmt.Errorf("dataset: invalid image shape %dx%dx%d", c.H, c.W, c.C)
	case c.NoiseStd < 0:
		return fmt.Errorf("dataset: negative noise std %v", c.NoiseStd)
	case c.MaxShift < 0 || c.MaxShift >= c.H || c.MaxShift >= c.W:
		return fmt.Errorf("dataset: max shift %d out of range for %dx%d images", c.MaxShift, c.H, c.W)
	case c.Components <= 0:
		return fmt.Errorf("dataset: non-positive component count %d", c.Components)
	default:
		return nil
	}
}

// Dim returns the flat feature dimension.
func (c Config) Dim() int { return c.H * c.W * c.C }

// Generator draws samples from the synthetic distribution. Prototypes are
// fixed at construction; the generator is safe for concurrent Sample calls
// only if each caller supplies its own RNG.
type Generator struct {
	cfg    Config
	protos [][]float32 // per class, flat C*H*W
}

// NewGenerator constructs class prototypes from rng.
func NewGenerator(cfg Config, rng *sim.RNG) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("dataset: nil rng")
	}
	g := &Generator{cfg: cfg, protos: make([][]float32, cfg.Classes)}
	for class := range g.protos {
		g.protos[class] = g.makePrototype(rng)
	}
	return g, nil
}

// makePrototype builds one class's base image: per channel, a sum of
// low-frequency sinusoids, normalized to zero mean and unit variance so
// classes differ in structure rather than overall energy.
func (g *Generator) makePrototype(rng *sim.RNG) []float32 {
	cfg := g.cfg
	p := make([]float32, cfg.Dim())
	for ch := 0; ch < cfg.C; ch++ {
		plane := p[ch*cfg.H*cfg.W : (ch+1)*cfg.H*cfg.W]
		for comp := 0; comp < cfg.Components; comp++ {
			amp := rng.Range(0.5, 1.0)
			fx := rng.Range(0.5, 2.5) / float64(cfg.W)
			fy := rng.Range(0.5, 2.5) / float64(cfg.H)
			phase := rng.Range(0, 2*math.Pi)
			for y := 0; y < cfg.H; y++ {
				for x := 0; x < cfg.W; x++ {
					// The explicit conversions here and at every
					// float64(a*b) in this package round each product,
					// so no GOARCH fuses it into a multiply-add and the
					// bytes stay amd64's.
					v := amp * math.Sin(float64(2*math.Pi*(float64(fx*float64(x))+float64(fy*float64(y))))+phase)
					plane[y*cfg.W+x] += float32(v)
				}
			}
		}
		normalize(plane)
	}
	return p
}

func normalize(plane []float32) {
	var mean float64
	for _, v := range plane {
		mean += float64(v)
	}
	mean /= float64(len(plane))
	var variance float64
	for _, v := range plane {
		d := float64(v) - mean
		variance += float64(d * d)
	}
	variance /= float64(len(plane))
	std := math.Sqrt(variance)
	if std < 1e-9 {
		std = 1
	}
	for i := range plane {
		plane[i] = float32((float64(plane[i]) - mean) / std)
	}
}

// Config returns the generator's configuration.
func (g *Generator) Config() Config { return g.cfg }

// Sample draws one example of the given class: the prototype, cyclically
// shifted, brightness-scaled, with Gaussian pixel noise.
func (g *Generator) Sample(class int, rng *sim.RNG) (ml.Example, error) {
	if err := g.check(class, rng); err != nil {
		return ml.Example{}, err
	}
	x := make([]float32, g.cfg.Dim())
	g.draw(class, rng, x)
	return ml.Example{X: x, Label: class}, nil
}

// Skip advances rng past one Sample of class: it leaves rng exactly where
// Sample leaves it and builds no image. The pixel noise is skipped with
// sim.RNG.SkipNormFloat64, which runs the normal sampler's accept test on
// the stream counter and computes no value.
func (g *Generator) Skip(class int, rng *sim.RNG) error {
	if err := g.check(class, rng); err != nil {
		return err
	}
	g.draw(class, rng, nil)
	return nil
}

func (g *Generator) check(class int, rng *sim.RNG) error {
	if class < 0 || class >= g.cfg.Classes {
		return fmt.Errorf("dataset: class %d outside [0,%d)", class, g.cfg.Classes)
	}
	if rng == nil {
		return fmt.Errorf("dataset: nil rng")
	}
	return nil
}

// draw is the one draw sequence of a sample, shared by Sample and Skip:
// two shift draws when MaxShift > 0, one brightness draw, then one noise
// draw per pixel in output order. It writes the image into x, or, with x
// nil, only advances rng.
func (g *Generator) draw(class int, rng *sim.RNG, x []float32) {
	cfg := g.cfg
	dx, dy := 0, 0
	if cfg.MaxShift > 0 {
		dx = rng.Intn(2*cfg.MaxShift+1) - cfg.MaxShift
		dy = rng.Intn(2*cfg.MaxShift+1) - cfg.MaxShift
	}
	brightness := float32(rng.Range(0.8, 1.2))
	if x == nil {
		rng.SkipNormFloat64(cfg.Dim())
		return
	}
	proto := g.protos[class]
	// The cyclic shift is resolved once per sample (start column) and once
	// per row (source row), leaving an increment-and-wrap in the pixel loop;
	// noise is still drawn pixel by pixel in output order.
	sx0 := mod(dx, cfg.W)
	for ch := 0; ch < cfg.C; ch++ {
		base := ch * cfg.H * cfg.W
		for y := 0; y < cfg.H; y++ {
			src := proto[base+mod(y+dy, cfg.H)*cfg.W:][:cfg.W]
			dst := x[base+y*cfg.W:][:cfg.W]
			sx := sx0
			for xx := range dst {
				dst[xx] = float32(src[sx]*brightness) + float32(rng.NormFloat64()*cfg.NoiseStd)
				if sx++; sx == cfg.W {
					sx = 0
				}
			}
		}
	}
}

// Balanced draws n examples with labels cycling through the classes
// (so counts per class differ by at most one).
func (g *Generator) Balanced(n int, rng *sim.RNG) ([]ml.Example, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dataset: non-positive sample count %d", n)
	}
	out := make([]ml.Example, n)
	for i := range out {
		ex, err := g.Sample(i%g.cfg.Classes, rng)
		if err != nil {
			return nil, err
		}
		out[i] = ex
	}
	return out, nil
}

// Pool is the pool Balanced(n, rng) draws, before any of it is drawn: the
// stream position each example starts at. Example i has label
// i % Classes, so the pool can be partitioned (PartitionIndices over
// Labels) before a single image exists, and only the examples someone
// reads are ever drawn.
type Pool struct {
	gen   *Generator
	marks []uint64 // marks[i] is rng's Mark before example i
}

// Walk advances rng exactly as Balanced(n, rng) does and returns the pool
// that call would have drawn, undrawn. Walking is sequential: rejection
// sampling in the noise and shift draws makes an example's length in the
// stream known only once it has been walked. Its cost is one Skip per
// example, almost all of it the skipped noise draws (BenchmarkPoolWalk).
func (g *Generator) Walk(n int, rng *sim.RNG) (*Pool, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dataset: non-positive sample count %d", n)
	}
	if rng == nil {
		return nil, fmt.Errorf("dataset: nil rng")
	}
	p := &Pool{gen: g, marks: make([]uint64, n)}
	for i := range p.marks {
		p.marks[i] = rng.Mark()
		if err := g.Skip(i%g.cfg.Classes, rng); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Labels returns every example's label, in pool order.
func (p *Pool) Labels() []int {
	labels := make([]int, len(p.marks))
	for i := range labels {
		labels[i] = i % p.gen.cfg.Classes
	}
	return labels
}

// Examples draws the pool examples at idx, in idx order, each bit for bit
// the example Balanced would have drawn at that index. The images share one
// backing array. Pool is read-only, so concurrent calls are safe.
func (p *Pool) Examples(idx []int) []ml.Example {
	dim := p.gen.cfg.Dim()
	buf := make([]float32, len(idx)*dim)
	out := make([]ml.Example, len(idx))
	for k, i := range idx {
		x := buf[k*dim : (k+1)*dim : (k+1)*dim]
		label := i % p.gen.cfg.Classes
		p.gen.draw(label, sim.NewRNG(p.marks[i]), x)
		out[k] = ml.Example{X: x, Label: label}
	}
	return out
}

func mod(a, m int) int {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}

// ClassHistogram counts labels in examples; the slice has classes entries.
func ClassHistogram(examples []ml.Example, classes int) []int {
	h := make([]int, classes)
	for _, ex := range examples {
		if ex.Label >= 0 && ex.Label < classes {
			h[ex.Label]++
		}
	}
	return h
}
