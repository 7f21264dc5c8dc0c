package mobility

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"roadrunner/internal/roadnet"
	"roadrunner/internal/sim"
)

// TestTickReplayMatchesBruteForce is the anchor for the tiled index at
// fleet scale: it runs the encounter tick the way core.Experiment does —
// cursor replay of generated traces into an incrementally updated index
// with fixed bounds — next to the O(n²) reference (plain At,
// BruteForcePairs), and requires the same pair set on every tick.
func TestTickReplayMatchesBruteForce(t *testing.T) {
	const rangeM = 400.0
	g, err := roadnet.Generate(roadnet.GridConfig{Rows: 10, Cols: 10, Spacing: 300, StreetSpeed: 10}, sim.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallGenConfig()
	cfg.Vehicles = 200
	cfg.Horizon = 600
	ts, err := Generate(cfg, g, sim.NewRNG(12))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplayer(ts)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := NewSpatialIndex(rangeM)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, _ := ts.Bounds()
	if err := idx.SetBounds(lo, hi); err != nil {
		t.Fatal(err)
	}
	idx.Reset(cfg.Vehicles)
	cursor := rep.NewCursor()
	tracker := NewEncounterTracker()
	pos := make([]roadnet.Point, cfg.Vehicles)
	on := make([]bool, cfg.Vehicles)

	observed, begins := 0, 0
	for now := sim.Time(0); now <= ts.Horizon; now = now.Add(5) {
		for v := range pos {
			p, active, err := rep.AtCursor(cursor, v, now)
			if err != nil {
				t.Fatal(err)
			}
			if err := idx.Update(v, p, active); err != nil {
				t.Fatal(err)
			}
			if pos[v], on[v], err = rep.At(v, now); err != nil {
				t.Fatal(err)
			}
		}
		tiled := idx.PairsWithin(rangeM)
		brute := BruteForcePairs(pos, on, rangeM)
		if !samePairs(tiled, brute) {
			t.Fatalf("t=%v: tiled %d pairs, brute force %d", now, len(tiled), len(brute))
		}
		b, _ := tracker.Update(tiled)
		observed += len(tiled)
		begins += len(b)
	}
	if observed == 0 || begins == 0 {
		t.Fatalf("fleet produced %d pair observations and %d encounter begins; the check is vacuous", observed, begins)
	}
}

// TestTickReplayLargeFleet runs the same tick at city scale: 50 000
// vehicles at a constant 40 vehicles/km² (a 35 km square) for 60 simulated
// seconds, on a sim.Engine that also carries one self-rescheduling beacon
// per vehicle, so the event queue holds a fleet-sized pending set. The
// O(n²) scan is out of reach at this size; each tick instead checks the
// incrementally updated index against a fresh Rebuild of the same
// positions, and the neighbour lists of a sample of vehicles against a
// linear scan.
func TestTickReplayLargeFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("50 000-vehicle replay; skipped in -short mode")
	}
	const (
		vehicles = 50000
		rangeM   = 400.0
		tickS    = 5.0
		beaconS  = 10.0
		stride   = 997 // sampled vehicles: every stride-th index
	)
	horizon := sim.TimeSeconds(60)
	ts, sideM := waypointFleet(t, vehicles, 40, horizon, 7)
	rep, err := NewReplayer(ts)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := NewSpatialIndex(rangeM)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.SetBounds(roadnet.Point{}, roadnet.Point{X: sideM, Y: sideM}); err != nil {
		t.Fatal(err)
	}
	idx.Reset(vehicles)
	fresh, err := NewSpatialIndex(rangeM)
	if err != nil {
		t.Fatal(err)
	}
	cursor := rep.NewCursor()
	tracker := NewEncounterTracker()
	pos := make([]roadnet.Point, vehicles)
	on := make([]bool, vehicles)
	engine := sim.NewEngine()

	var ticks, observed, begins, ends, beacons int
	var tick func()
	tick = func() {
		now := engine.Now()
		for v := range pos {
			var err error
			if pos[v], on[v], err = rep.AtCursor(cursor, v, now); err != nil {
				t.Fatal(err)
			}
			if err := idx.Update(v, pos[v], on[v]); err != nil {
				t.Fatal(err)
			}
		}
		pairs := idx.PairsWithin(rangeM)
		if err := fresh.Rebuild(pos, on); err != nil {
			t.Fatal(err)
		}
		if want := fresh.PairsWithin(rangeM); !samePairs(pairs, want) {
			t.Fatalf("t=%v: incremental index %d pairs, rebuilt %d", now, len(pairs), len(want))
		}
		partners := make(map[int][]int)
		for _, p := range pairs {
			if p.A%stride == 0 {
				partners[p.A] = append(partners[p.A], p.B)
			}
			if p.B%stride == 0 {
				partners[p.B] = append(partners[p.B], p.A)
			}
		}
		for v := 0; v < vehicles; v += stride {
			got := append([]int(nil), partners[v]...)
			sort.Ints(got)
			if want := bruteNeighbors(pos, on, v, rangeM); !reflect.DeepEqual(got, want) {
				t.Fatalf("t=%v: vehicle %d has %d partners in the pair set, %d by linear scan", now, v, len(got), len(want))
			}
		}
		b, e := tracker.Update(pairs)
		ticks++
		observed += len(pairs)
		begins += len(b)
		ends += len(e)
		if next := now.Add(sim.DurationSeconds(tickS)); next <= horizon {
			if _, err := engine.Schedule(next, tick); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := engine.Schedule(0, tick); err != nil {
		t.Fatal(err)
	}
	wantBeacons := 0
	for v := 0; v < vehicles; v++ {
		phase := sim.TimeSeconds(beaconS * float64(v%97) / 97)
		wantBeacons += int(math.Floor(horizon.Sub(phase).Seconds()/beaconS)) + 1
		var beacon func()
		beacon = func() {
			beacons++
			if next := engine.Now().Add(sim.DurationSeconds(beaconS)); next <= horizon {
				if _, err := engine.Schedule(next, beacon); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := engine.Schedule(phase, beacon); err != nil {
			t.Fatal(err)
		}
	}
	if pending := engine.Pending(); pending != vehicles+1 {
		t.Fatalf("pending events %d before the run, want %d", pending, vehicles+1)
	}
	if err := engine.Run(horizon); err != nil {
		t.Fatal(err)
	}

	if ticks != 13 || beacons != wantBeacons || engine.Processed() != uint64(ticks+beacons) {
		t.Fatalf("ran %d ticks and %d beacons (%d events); want 13, %d and their sum", ticks, beacons, engine.Processed(), wantBeacons)
	}
	if observed == 0 || begins == 0 || ends == 0 {
		t.Fatalf("fleet produced %d pair observations, %d encounter begins, %d ends; the check is vacuous", observed, begins, ends)
	}
	if _, occupied, _ := idx.TileStats(); occupied < 1000 {
		t.Fatalf("%d occupied tiles; the fleet did not spread over the city", occupied)
	}
}

// waypointFleet draws n random-waypoint traces over a square city sized
// for the given density (vehicles/km²), with ignition churn: vehicles park
// between some trips. It returns the traces and the city's side in meters.
func waypointFleet(t *testing.T, n int, density float64, horizon sim.Time, seed uint64) (*TraceSet, float64) {
	t.Helper()
	sideM := math.Sqrt(float64(n)/density) * 1000
	root := sim.NewRNG(seed)
	traces := make([]Trace, n)
	for i := range traces {
		rng := root.Fork("vehicle")
		p := roadnet.Point{X: rng.Range(0, sideM), Y: rng.Range(0, sideM)}
		on := rng.Bool(0.9)
		samples := []Sample{{T: 0, Pos: p, On: on}}
		for now := sim.Time(0); now < horizon; {
			switch {
			case !on: // parked: dwell, then restart the ignition
				now = now.Add(sim.DurationSeconds(rng.Range(10, 60)))
				on = true
			case rng.Bool(0.15): // park here
				now = now.Add(sim.DurationSeconds(rng.Range(20, 90)))
				on = false
			default: // drive to a new waypoint at urban speed
				next := roadnet.Point{X: rng.Range(0, sideM), Y: rng.Range(0, sideM)}
				now = now.Add(sim.DurationSeconds(math.Max(1, p.Dist(next)/rng.Range(8, 20))))
				p = next
			}
			samples = append(samples, Sample{T: now, Pos: p, On: on})
		}
		traces[i] = Trace{Vehicle: i, Samples: samples}
	}
	ts := &TraceSet{Traces: traces, Horizon: horizon}
	if err := ts.Validate(); err != nil {
		t.Fatal(err)
	}
	return ts, sideM
}
