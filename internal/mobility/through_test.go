package mobility

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"roadrunner/internal/roadnet"
	"roadrunner/internal/sim"
)

func samePoint(a, b roadnet.Point) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y)
}

func transitionsThrough(t *testing.T, r *Replayer, v int, end sim.Time) []Transition {
	t.Helper()
	all, err := r.Transitions(v)
	if err != nil {
		t.Fatal(err)
	}
	var out []Transition
	for _, tr := range all {
		if tr.T <= end {
			out = append(out, tr)
		}
	}
	return out
}

// TestThroughTracesBitIdentical: traces generated through a cap answer At,
// AtCursor and Transitions at every instant up to and including the cap
// exactly as the full-horizon traces do. The caps are every sample time of
// vehicle 0 and an instant just after each. A trip that starts exactly at
// the cap after a powered-off dwell is the case an exclusive cap gets
// wrong, so the test requires the caps to include one.
func TestThroughTracesBitIdentical(t *testing.T) {
	g := testNetwork(t)
	cfg := smallGenConfig()
	cfg.Vehicles = 4
	full, err := Generate(cfg, g, sim.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	fullR, err := NewReplayer(full)
	if err != nil {
		t.Fatal(err)
	}
	var caps []sim.Duration
	onAtCap := 0
	ss := full.Traces[0].Samples
	for i, s := range ss {
		if s.T == 0 || s.T >= full.Horizon {
			continue
		}
		caps = append(caps, sim.Duration(s.T), sim.Duration(s.T)+0.25)
		if s.On && !ss[i-1].On {
			onAtCap++
		}
	}
	if onAtCap == 0 {
		t.Fatal("no cap falls on a trip start after a powered-off dwell")
	}
	for _, limit := range caps {
		capped, err := Generate(cfg.Through(limit), g, sim.NewRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewReplayer(capped)
		if err != nil {
			t.Fatal(err)
		}
		end := sim.Time(0).Add(limit)
		if r.Horizon() <= end || r.Horizon() >= fullR.Horizon() {
			t.Fatalf("cap %v: generated horizon %v", limit, r.Horizon())
		}
		for v := 0; v < cfg.Vehicles; v++ {
			times := []sim.Time{end}
			for _, s := range full.Traces[v].Samples {
				if s.T <= end {
					times = append(times, s.T, s.T+(end-s.T)/3)
				}
			}
			sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
			cur, fullCur := r.NewCursor(), fullR.NewCursor()
			for _, at := range times {
				p, on, _ := r.At(v, at)
				wp, won, _ := fullR.At(v, at)
				if !samePoint(p, wp) || on != won {
					t.Fatalf("cap %v vehicle %d: At(%v) = %v %v, full traces give %v %v", limit, v, at, p, on, wp, won)
				}
				p, on, _ = r.AtCursor(cur, v, at)
				wp, won, _ = fullR.AtCursor(fullCur, v, at)
				if !samePoint(p, wp) || on != won {
					t.Fatalf("cap %v vehicle %d: AtCursor(%v) = %v %v, full traces give %v %v", limit, v, at, p, on, wp, won)
				}
			}
			if got, want := transitionsThrough(t, r, v, end), transitionsThrough(t, fullR, v, end); !reflect.DeepEqual(got, want) {
				t.Fatalf("cap %v vehicle %d: transitions %v, full traces give %v", limit, v, got, want)
			}
		}
	}
	for _, limit := range []sim.Duration{0, cfg.Horizon, cfg.Horizon + 1} {
		if cfg.Through(limit) != cfg {
			t.Errorf("Through(%v) changed a config it cannot cut", limit)
		}
	}
}
