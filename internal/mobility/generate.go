package mobility

import (
	"fmt"
	"math"

	"roadrunner/internal/roadnet"
	"roadrunner/internal/sim"
)

// GenConfig parameterizes the synthetic fleet generator. The generator is
// the repository's stand-in for the paper's proprietary real-world GPS
// dataset of Gothenburg: vehicles alternate between trips (shortest-path
// drives between random intersections at per-segment speeds) and parked
// dwells, during which drivers may turn the vehicle off. These two
// behaviours produce exactly the dynamics the paper's evaluation depends
// on: time-varying pairwise proximity (V2X encounter opportunities) and
// vehicles becoming unavailable mid-round (churn).
type GenConfig struct {
	// Vehicles is the fleet size.
	Vehicles int `json:"vehicles"`
	// Horizon is the length of the generated period in simulated seconds.
	Horizon sim.Duration `json:"horizon_s"`
	// DwellMin/DwellMax bound the parked time between trips (uniform).
	DwellMin sim.Duration `json:"dwell_min_s"`
	DwellMax sim.Duration `json:"dwell_max_s"`
	// OffWhenParkedProb is the probability that the driver turns the
	// vehicle off for the duration of a dwell. Vehicles that stay on while
	// parked continue to partake in the VCPS (e.g. can exchange models).
	OffWhenParkedProb float64 `json:"off_when_parked_prob"`
	// SpeedFactorMin/Max scale each road segment's free-flow speed per
	// traversal (uniform), modeling traffic variability.
	SpeedFactorMin float64 `json:"speed_factor_min"`
	SpeedFactorMax float64 `json:"speed_factor_max"`
	// InitialDwellMax bounds the random initial parked period, staggering
	// the fleet's first departures.
	InitialDwellMax sim.Duration `json:"initial_dwell_max_s"`
	// MaxRouteTries bounds destination re-draws when a drawn destination
	// is unreachable (zero means the default of 10).
	MaxRouteTries int `json:"max_route_tries,omitempty"`
}

// DefaultGenConfig returns fleet dynamics tuned to reproduce the paper's
// experiment: a 120-vehicle fleet over a 5-hour window with trips averaging
// ~10 minutes and dwells averaging ~4 minutes, yielding the 0-20 (avg ~10)
// V2X exchanges per 200 s round reported in Figure 4 when combined with
// roadnet.DefaultGridConfig.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		Vehicles:          120,
		Horizon:           5 * sim.Hour,
		DwellMin:          60,
		DwellMax:          420,
		OffWhenParkedProb: 0.5,
		SpeedFactorMin:    0.75,
		SpeedFactorMax:    1.05,
		InitialDwellMax:   180,
	}
}

// Validate reports whether the configuration is usable.
func (c GenConfig) Validate() error {
	switch {
	case c.Vehicles <= 0:
		return fmt.Errorf("mobility: non-positive fleet size %d", c.Vehicles)
	case c.Horizon <= 0:
		return fmt.Errorf("mobility: non-positive horizon %v", c.Horizon)
	case c.DwellMin < 0 || c.DwellMax < c.DwellMin:
		return fmt.Errorf("mobility: bad dwell range [%v, %v]", c.DwellMin, c.DwellMax)
	case c.OffWhenParkedProb < 0 || c.OffWhenParkedProb > 1:
		return fmt.Errorf("mobility: off-when-parked probability %v outside [0,1]", c.OffWhenParkedProb)
	case c.SpeedFactorMin <= 0 || c.SpeedFactorMax < c.SpeedFactorMin:
		return fmt.Errorf("mobility: bad speed factor range [%v, %v]", c.SpeedFactorMin, c.SpeedFactorMax)
	case c.InitialDwellMax < 0:
		return fmt.Errorf("mobility: negative initial dwell %v", c.InitialDwellMax)
	case c.MaxRouteTries < 0:
		return fmt.Errorf("mobility: negative max route tries %d", c.MaxRouteTries)
	default:
		return nil
	}
}

// Through returns c cut to what replay reads up to and including instant
// t. With 0 < t < Horizon the horizon becomes the next float64 above t, so
// every sample with T <= t is generated — and, mid-trip, the first sample
// after t that positions interpolate towards — exactly as the full horizon
// generates it: each vehicle draws from its own fork, so where a trace ends
// changes no draw before that point. Any other t returns c unchanged.
func (c GenConfig) Through(t sim.Duration) GenConfig {
	if t > 0 && t < c.Horizon {
		c.Horizon = sim.Duration(math.Nextafter(float64(t), math.Inf(1)))
	}
	return c
}

// Generate produces a fleet trace set on the given road network, drawing
// all randomness from rng (same config + network + rng seed ⇒ identical
// traces).
func Generate(c GenConfig, g *roadnet.Graph, rng *sim.RNG) (*TraceSet, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if g == nil || g.NumNodes() < 2 {
		return nil, fmt.Errorf("mobility: generate: road network needs at least 2 nodes")
	}
	tries := c.MaxRouteTries
	if tries == 0 {
		tries = 10
	}

	ts := &TraceSet{
		Traces:  make([]Trace, c.Vehicles),
		Horizon: sim.Time(0).Add(c.Horizon),
	}
	// One PathFinder serves the whole fleet: route queries dominate
	// generation cost, and the finder's reused search state returns routes
	// byte-identical to per-call Graph.ShortestPath.
	pf := roadnet.NewPathFinder(g)
	for v := 0; v < c.Vehicles; v++ {
		vrng := rng.Fork("vehicle")
		trace, err := generateOne(c, g, pf, vrng, tries)
		if err != nil {
			return nil, fmt.Errorf("mobility: generate vehicle %d: %w", v, err)
		}
		trace.Vehicle = v
		ts.Traces[v] = trace
	}
	if err := ts.Validate(); err != nil {
		return nil, fmt.Errorf("mobility: generated invalid trace set: %w", err)
	}
	return ts, nil
}

func generateOne(c GenConfig, g *roadnet.Graph, pf *roadnet.PathFinder, rng *sim.RNG, maxTries int) (Trace, error) {
	horizon := sim.Time(0).Add(c.Horizon)
	cur := roadnet.NodeID(rng.Intn(g.NumNodes()))

	var tr Trace
	now := sim.Time(0)

	// Initial parked period. The very first sample establishes position;
	// whether the vehicle idles on or sits off is drawn like any dwell.
	initialOff := rng.Bool(c.OffWhenParkedProb)
	tr.Samples = append(tr.Samples, Sample{T: now, Pos: g.Pos(cur), On: !initialOff})
	if c.InitialDwellMax > 0 {
		now = now.Add(sim.Duration(rng.Range(0, float64(c.InitialDwellMax))))
	}

	for now < horizon {
		// Pick a reachable destination distinct from the current node.
		route, err := drawRoute(g, pf, cur, rng, maxTries)
		if err != nil {
			return Trace{}, err
		}

		// Trip start: ignition on (emit only if the state or time changed;
		// time always changed unless initial dwell was zero-length).
		tr.Samples = appendSample(tr.Samples, Sample{T: now, Pos: g.Pos(cur), On: true})
		for _, e := range route.Edges {
			factor := rng.Range(c.SpeedFactorMin, c.SpeedFactorMax)
			speed := e.Speed * factor
			dt := sim.Duration(e.Length / speed)
			now = now.Add(dt)
			tr.Samples = appendSample(tr.Samples, Sample{T: now, Pos: g.Pos(e.To), On: true})
			if now >= horizon {
				break
			}
		}
		cur = route.Nodes[len(route.Nodes)-1]
		if now >= horizon {
			break
		}

		// Parked dwell at the destination.
		off := rng.Bool(c.OffWhenParkedProb)
		if off {
			tr.Samples = appendSample(tr.Samples, Sample{T: now, Pos: lastPos(tr.Samples), On: false})
		}
		dwell := sim.Duration(rng.Range(float64(c.DwellMin), float64(c.DwellMax)))
		now = now.Add(dwell)
	}
	return tr, nil
}

func drawRoute(g *roadnet.Graph, pf *roadnet.PathFinder, from roadnet.NodeID, rng *sim.RNG, maxTries int) (roadnet.Route, error) {
	var lastErr error
	for i := 0; i < maxTries; i++ {
		dest := roadnet.NodeID(rng.Intn(g.NumNodes()))
		if dest == from {
			continue
		}
		route, err := pf.ShortestPath(from, dest)
		if err != nil {
			lastErr = err
			continue
		}
		if len(route.Edges) == 0 {
			continue
		}
		return route, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("mobility: could not draw a distinct destination from node %d", from)
	}
	return roadnet.Route{}, lastErr
}

// appendSample appends s, replacing a previous sample at the identical
// instant (the later write wins) to preserve the strictly-increasing
// invariant of Trace.
func appendSample(ss []Sample, s Sample) []Sample {
	if n := len(ss); n > 0 && ss[n-1].T == s.T {
		ss[n-1] = s
		return ss
	}
	return append(ss, s)
}

func lastPos(ss []Sample) roadnet.Point {
	if len(ss) == 0 {
		return roadnet.Point{}
	}
	return ss[len(ss)-1].Pos
}
