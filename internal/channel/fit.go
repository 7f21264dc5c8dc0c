package channel

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// TableHeader is the version-stamped first line of a fitted table CSV.
const TableHeader = "# roadrunner-chantable-v1"

var tableColumns = []string{
	"kind", "dist_lo_m", "dist_hi_m", "size_lo", "size_hi",
	"load_lo", "load_hi", "kbps", "latency_s", "drop_prob", "n",
}

// Bin is one cell of a fitted indicator table: a half-open
// (kind, distance, size, load) box and the channel indicators measured
// inside it. Hi edges may be +Inf; a DistLo of -1 is the unknown-distance
// bin (links without positioned endpoints).
type Bin struct {
	Kind   Kind    `json:"kind"`
	DistLo float64 `json:"dist_lo_m"`
	DistHi float64 `json:"dist_hi_m"`
	SizeLo float64 `json:"size_lo"`
	SizeHi float64 `json:"size_hi"`
	LoadLo float64 `json:"load_lo"`
	LoadHi float64 `json:"load_hi"`
	// KBps and LatencyS are the fitted effective rate and latency floor;
	// a non-positive KBps means "no delivered samples — fall back to the
	// nominal channel rate".
	KBps     float64 `json:"kbps"`
	LatencyS float64 `json:"latency_s"`
	// DropProb is the observed channel-loss fraction in [0, 1].
	DropProb float64 `json:"drop_prob"`
	// N counts the channel-attributable samples the bin was fitted from.
	N int `json:"n"`
}

// contains reports whether the bin covers the given link coordinates.
func (b Bin) contains(distM float64, sizeBytes, load int) bool {
	if distM < 0 {
		distM = -1
	}
	return distM >= b.DistLo && distM < b.DistHi &&
		float64(sizeBytes) >= b.SizeLo && float64(sizeBytes) < b.SizeHi &&
		float64(load) >= b.LoadLo && float64(load) < b.LoadHi
}

// Table is a fitted indicator table: the replayable half of the oracle
// pipeline. Bins are kept in fit order (sorted by kind, then box origin).
type Table struct {
	Bins []Bin `json:"bins"`
}

// Lookup returns the first bin covering the coordinates, scanning in table
// order; ok is false when no bin matches (the oracle then falls back to
// the nominal channel).
func (t *Table) Lookup(kind Kind, distM float64, sizeBytes, load int) (Bin, bool) {
	for _, b := range t.Bins {
		if b.Kind == kind && b.contains(distM, sizeBytes, load) {
			return b, true
		}
	}
	return Bin{}, false
}

// Validate reports whether every bin is usable.
func (t *Table) Validate() error {
	if len(t.Bins) == 0 {
		return fmt.Errorf("channel: empty oracle table")
	}
	for i, b := range t.Bins {
		switch {
		case b.Kind != KindV2C && b.Kind != KindV2X && b.Kind != KindWired:
			return fmt.Errorf("channel: table bin %d: unknown kind %d", i, int(b.Kind))
		case math.IsNaN(b.DistLo) || b.DistLo < -1 || b.DistHi <= b.DistLo:
			return fmt.Errorf("channel: table bin %d: bad distance range [%v, %v)", i, b.DistLo, b.DistHi)
		case math.IsNaN(b.SizeLo) || b.SizeLo < 0 || b.SizeHi <= b.SizeLo:
			return fmt.Errorf("channel: table bin %d: bad size range [%v, %v)", i, b.SizeLo, b.SizeHi)
		case math.IsNaN(b.LoadLo) || b.LoadLo < 0 || b.LoadHi <= b.LoadLo:
			return fmt.Errorf("channel: table bin %d: bad load range [%v, %v)", i, b.LoadLo, b.LoadHi)
		case math.IsNaN(b.KBps) || math.IsInf(b.KBps, 0):
			return fmt.Errorf("channel: table bin %d: bad rate %v", i, b.KBps)
		case math.IsNaN(b.LatencyS) || b.LatencyS < 0 || math.IsInf(b.LatencyS, 0):
			return fmt.Errorf("channel: table bin %d: bad latency %v", i, b.LatencyS)
		case math.IsNaN(b.DropProb) || b.DropProb < 0 || b.DropProb > 1:
			return fmt.Errorf("channel: table bin %d: drop probability %v outside [0, 1]", i, b.DropProb)
		case b.N < 0:
			return fmt.Errorf("channel: table bin %d: negative sample count %d", i, b.N)
		}
	}
	return nil
}

// FitConfig sets the binning grid the fitter quantizes samples into. Each
// edge list partitions its axis into [0, e0), [e0, e1), …, [eLast, +Inf);
// unknown distances form their own [-1, 0) bin.
type FitConfig struct {
	// DistEdgesM partitions sender–receiver distance in meters.
	DistEdgesM []float64
	// SizeEdges partitions payload size in bytes.
	SizeEdges []float64
	// LoadEdges partitions the in-flight count at send time.
	LoadEdges []float64
	// MinSamples drops bins fitted from fewer channel-attributable
	// samples; 0 keeps every non-empty bin.
	MinSamples int
}

// DefaultFitConfig is a coarse grid suited to model-snapshot traffic.
func DefaultFitConfig() FitConfig {
	return FitConfig{
		DistEdgesM: []float64{50, 150, 300, 600},
		SizeEdges:  []float64{32768, 131072, 524288},
		LoadEdges:  []float64{1, 2, 4, 8},
	}
}

// binOf returns the half-open interval of edges containing v, with the
// implicit leading [0, e0) and trailing [eLast, +Inf) intervals.
func binOf(v float64, edges []float64) (lo, hi float64) {
	lo = 0
	for _, e := range edges {
		if v < e {
			return lo, e
		}
		lo = e
	}
	return lo, math.Inf(1)
}

// Fit bins the channel-attributable samples of a recorded trace and fits
// per-bin indicators: the latency floor (minimum delivered duration), the
// mean effective rate above that floor, and the observed loss fraction.
// Endpoint-attributable outcomes (off, range, killed, blackout, error) are
// excluded — they describe the fleet, not the channel. The result is
// deterministic in the sample order, which is itself deterministic under
// the reproducibility contract.
func Fit(samples []Sample, fc FitConfig) (*Table, error) {
	type key struct {
		kind                   Kind
		distLo, sizeLo, loadLo float64
	}
	type agg struct {
		bin       Bin
		delivered []Sample
		lost      int
	}
	groups := make(map[key]*agg)
	var order []key
	for _, s := range samples {
		var lost bool
		switch s.Outcome {
		case OutcomeDelivered:
		case OutcomeDropped, OutcomeChannel, OutcomeBurst:
			lost = true
		default:
			continue
		}
		distLo, distHi := -1.0, 0.0
		if s.DistanceM >= 0 {
			distLo, distHi = binOf(s.DistanceM, fc.DistEdgesM)
		}
		sizeLo, sizeHi := binOf(float64(s.SizeBytes), fc.SizeEdges)
		loadLo, loadHi := binOf(float64(s.Load), fc.LoadEdges)
		k := key{kind: s.Kind, distLo: distLo, sizeLo: sizeLo, loadLo: loadLo}
		g, ok := groups[k]
		if !ok {
			g = &agg{bin: Bin{
				Kind:   s.Kind,
				DistLo: distLo, DistHi: distHi,
				SizeLo: sizeLo, SizeHi: sizeHi,
				LoadLo: loadLo, LoadHi: loadHi,
			}}
			groups[k] = g
			order = append(order, k)
		}
		if lost {
			g.lost++
		} else {
			g.delivered = append(g.delivered, s)
		}
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("channel: no channel-attributable samples to fit")
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		if a.distLo != b.distLo {
			return a.distLo < b.distLo
		}
		if a.sizeLo != b.sizeLo {
			return a.sizeLo < b.sizeLo
		}
		return a.loadLo < b.loadLo
	})
	t := &Table{}
	for _, k := range order {
		g := groups[k]
		b := g.bin
		b.N = len(g.delivered) + g.lost
		if b.N < fc.MinSamples {
			continue
		}
		b.DropProb = float64(g.lost) / float64(b.N)
		if len(g.delivered) > 0 {
			lat := g.delivered[0].DurationS
			for _, s := range g.delivered[1:] {
				if s.DurationS < lat {
					lat = s.DurationS
				}
			}
			b.LatencyS = lat
			// Mean effective rate over the samples with airtime above the
			// latency floor; a bin whose every delivery sat at the floor
			// carries the end-to-end rate instead.
			var sum float64
			var n int
			for _, s := range g.delivered {
				if s.DurationS > lat {
					sum += float64(s.SizeBytes) / (1000 * (s.DurationS - lat))
					n++
				}
			}
			if n > 0 {
				b.KBps = sum / float64(n)
			} else if lat > 0 {
				b.LatencyS = 0
				for _, s := range g.delivered {
					sum += float64(s.SizeBytes) / (1000 * s.DurationS)
				}
				b.KBps = sum / float64(len(g.delivered))
			}
		}
		t.Bins = append(t.Bins, b)
	}
	if len(t.Bins) == 0 {
		return nil, fmt.Errorf("channel: every bin fell below the %d-sample floor", fc.MinSamples)
	}
	return t, t.Validate()
}

// WriteTable writes the canonical fitted-table CSV.
func WriteTable(w io.Writer, t *Table) error {
	if _, err := fmt.Fprintln(w, TableHeader); err != nil {
		return fmt.Errorf("channel: write table: %w", err)
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(tableColumns); err != nil {
		return fmt.Errorf("channel: write table: %w", err)
	}
	for _, b := range t.Bins {
		row := []string{
			b.Kind.String(),
			formatFloat(b.DistLo), formatFloat(b.DistHi),
			formatFloat(b.SizeLo), formatFloat(b.SizeHi),
			formatFloat(b.LoadLo), formatFloat(b.LoadHi),
			formatFloat(b.KBps), formatFloat(b.LatencyS), formatFloat(b.DropProb),
			strconv.Itoa(b.N),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("channel: write table: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("channel: write table: %w", err)
	}
	return nil
}

// ParseTable reads a fitted-table CSV, validating every bin.
func ParseTable(r io.Reader) (*Table, error) {
	br := bufio.NewReader(r)
	header, err := br.ReadString('\n')
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("channel: table header: %w", err)
	}
	if strings.TrimRight(header, "\r\n") != TableHeader {
		return nil, fmt.Errorf("channel: not a channel table (missing %q header)", TableHeader)
	}
	cr := csv.NewReader(br)
	cr.FieldsPerRecord = len(tableColumns)
	cols, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("channel: table columns: %w", err)
	}
	for i, want := range tableColumns {
		if cols[i] != want {
			return nil, fmt.Errorf("channel: table column %d is %q, want %q", i, cols[i], want)
		}
	}
	t := &Table{}
	for line := 3; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("channel: table line %d: %w", line, err)
		}
		b, err := parseBin(row)
		if err != nil {
			return nil, fmt.Errorf("channel: table line %d: %w", line, err)
		}
		t.Bins = append(t.Bins, b)
	}
	return t, t.Validate()
}

func parseBin(row []string) (Bin, error) {
	var b Bin
	kind, err := ParseKind(row[0])
	if err != nil {
		return b, err
	}
	b.Kind = kind
	fields := []*float64{
		&b.DistLo, &b.DistHi, &b.SizeLo, &b.SizeHi,
		&b.LoadLo, &b.LoadHi, &b.KBps, &b.LatencyS, &b.DropProb,
	}
	for i, dst := range fields {
		v, err := strconv.ParseFloat(row[i+1], 64)
		if err != nil {
			return b, fmt.Errorf("bad %s %q", tableColumns[i+1], row[i+1])
		}
		*dst = v
	}
	n, err := strconv.Atoi(row[10])
	if err != nil {
		return b, fmt.Errorf("bad n %q", row[10])
	}
	b.N = n
	return b, nil
}
