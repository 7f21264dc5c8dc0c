package strategy

import (
	"fmt"
	"sort"

	"roadrunner/internal/comm"
	"roadrunner/internal/metrics"
	"roadrunner/internal/ml"
	"roadrunner/internal/sim"
	"roadrunner/internal/trace"
)

// Message tags shared by the server-driven strategies.
const (
	tagGlobal    = "global"    // server -> vehicle: current global model
	tagUpdate    = "update"    // vehicle -> server: retrained model + data amount
	tagOffer     = "offer"     // collector -> vehicle (V2X): forwarded global model
	tagRetrained = "retrained" // vehicle -> collector (V2X): retrained model
	tagDecline   = "decline"   // vehicle -> collector (V2X): cannot serve
)

// controlBytes is the wire size of a model-free control message.
const controlBytes = 256

// FedAvgConfig parameterizes the FL baseline (the paper's BASE: "we perform
// FL in the VCPS, contacting 5 vehicles each round over 75 rounds of 30
// seconds duration").
type FedAvgConfig struct {
	// Rounds is the number of federated rounds (the fixed V2C budget).
	Rounds int `json:"rounds"`
	// VehiclesPerRound is the number of vehicles contacted per round.
	VehiclesPerRound int `json:"vehicles_per_round"`
	// RoundDuration is the round timer: the window vehicles have to
	// receive and retrain the global model.
	RoundDuration sim.Duration `json:"round_duration_s"`
	// ServerOverhead is the fixed per-round server-side time for
	// collection, aggregation, evaluation, and scheduling. The paper's
	// reported totals (75 rounds; BASE ends at 3592 s with 30 s rounds,
	// OPP at 16342 s with 200 s rounds) both imply the same ≈17.9 s/round
	// overhead — the calibration reproduced here.
	ServerOverhead sim.Duration `json:"server_overhead_s"`
}

// DefaultFedAvgConfig is the paper's BASE configuration.
func DefaultFedAvgConfig() FedAvgConfig {
	return FedAvgConfig{
		Rounds:           75,
		VehiclesPerRound: 5,
		RoundDuration:    30,
		ServerOverhead:   17.893,
	}
}

// Validate reports whether the configuration is usable.
func (c FedAvgConfig) Validate() error {
	switch {
	case c.Rounds <= 0:
		return fmt.Errorf("strategy: non-positive round count %d", c.Rounds)
	case c.VehiclesPerRound <= 0:
		return fmt.Errorf("strategy: non-positive vehicles per round %d", c.VehiclesPerRound)
	case c.RoundDuration <= 0:
		return fmt.Errorf("strategy: non-positive round duration %v", c.RoundDuration)
	case c.ServerOverhead < 0:
		return fmt.Errorf("strategy: negative server overhead %v", c.ServerOverhead)
	default:
		return nil
	}
}

// FederatedAveraging is vanilla FL over V2C (the paper's §3 strategy box):
// each round the server sends the global model to a random vehicle subset,
// each vehicle retrains on local data and returns its model at the round's
// end, and the server aggregates with Federated Averaging.
type FederatedAveraging struct {
	Base
	cfg FedAvgConfig

	round        int // 1-based; 0 before the first round
	roundStart   sim.Time
	roundEnded   bool
	roundSpan    trace.SpanID
	participants map[sim.AgentID]bool
	trained      map[sim.AgentID]pendingUpdate
	awaiting     int
	collected    []*ml.Snapshot
	weights      []float64
	provenance   map[sim.AgentID]bool // vehicles that ever contributed
}

type pendingUpdate struct {
	model  *ml.Snapshot
	weight float64
}

var _ Strategy = (*FederatedAveraging)(nil)

// NewFederatedAveraging returns the BASE strategy.
func NewFederatedAveraging(cfg FedAvgConfig) (*FederatedAveraging, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &FederatedAveraging{cfg: cfg}, nil
}

// Name implements Strategy.
func (f *FederatedAveraging) Name() string { return "fedavg" }

// Config returns the strategy's configuration.
func (f *FederatedAveraging) Config() FedAvgConfig { return f.cfg }

// Start implements Strategy.
func (f *FederatedAveraging) Start(env Env) error {
	if env.Model(env.Server()) == nil {
		return fmt.Errorf("strategy: fedavg: server has no initial model")
	}
	f.provenance = make(map[sim.AgentID]bool)
	f.startRound(env)
	return nil
}

func (f *FederatedAveraging) startRound(env Env) {
	if f.round >= f.cfg.Rounds {
		env.Logf("fedavg: %d rounds complete at %v", f.round, env.Now())
		env.Stop()
		return
	}
	f.round++
	f.roundStart = env.Now()
	f.roundEnded = false
	f.participants = make(map[sim.AgentID]bool, f.cfg.VehiclesPerRound)
	f.trained = make(map[sim.AgentID]pendingUpdate)
	f.awaiting = 0
	f.collected = f.collected[:0]
	f.weights = f.weights[:0]

	// The round span scopes everything the round causes — transfers,
	// trains, evals emitted by the core nest under it automatically.
	tr := env.Tracer()
	f.roundSpan = tr.BeginRoot(trace.KindRound, "round")
	tr.AttrInt(f.roundSpan, "round", int64(f.round))
	tr.Attr(f.roundSpan, "strategy", "fedavg")
	tr.SetScope(f.roundSpan)

	global := env.Model(env.Server())
	for _, v := range pickOnVehicles(env, f.cfg.VehiclesPerRound) {
		p := Payload{Tag: tagGlobal, Round: f.round, Model: global}
		if _, err := env.Send(env.Server(), v, comm.KindV2C, p); err != nil {
			env.Logf("fedavg: round %d: send global to %v: %v", f.round, v, err)
			continue
		}
		f.participants[v] = true
	}
	round := f.round
	if err := env.After(f.cfg.RoundDuration, func() { f.endRound(env, round) }); err != nil {
		env.Logf("fedavg: schedule round end: %v", err)
		env.Stop()
	}
}

// OnDeliver implements Strategy.
func (f *FederatedAveraging) OnDeliver(env Env, msg *comm.Message, p Payload) {
	switch p.Tag {
	case tagGlobal:
		if p.Round != f.round || f.roundEnded || !f.participants[msg.To] {
			return // stale round or non-participant
		}
		if err := env.Train(msg.To, p.Model); err != nil {
			env.Logf("fedavg: round %d: train on %v: %v", f.round, msg.To, err)
		}
	case tagUpdate:
		if msg.To != env.Server() || p.Round != f.round {
			return
		}
		f.awaiting--
		f.collected = append(f.collected, p.Model)
		f.weights = append(f.weights, p.DataAmount)
		for _, v := range p.Provenance {
			f.provenance[v] = true
		}
		f.maybeAggregate(env)
	}
}

// OnSendFailed implements Strategy.
func (f *FederatedAveraging) OnSendFailed(env Env, msg *comm.Message, p Payload, reason error) {
	switch p.Tag {
	case tagGlobal:
		// The vehicle simply misses this round.
		env.Logf("fedavg: round %d: global to %v failed: %v", p.Round, msg.To, reason)
	case tagUpdate:
		if p.Round != f.round {
			return
		}
		f.awaiting--
		env.Metrics().Add(metrics.CounterDiscardedModels, 1)
		f.maybeAggregate(env)
	}
}

// OnTrainDone implements Strategy.
func (f *FederatedAveraging) OnTrainDone(env Env, id sim.AgentID, trained *ml.Snapshot, loss float64) {
	if !f.participants[id] {
		return
	}
	if f.roundEnded {
		// Finished too late; the contribution is lost (the paper's round
		// duration must cover transmission plus retraining).
		env.Metrics().Add(metrics.CounterDiscardedModels, 1)
		return
	}
	f.trained[id] = pendingUpdate{model: trained, weight: float64(env.DataAmount(id))}
}

func (f *FederatedAveraging) endRound(env Env, round int) {
	if round != f.round || f.roundEnded {
		return
	}
	f.roundEnded = true
	vehicles := make([]sim.AgentID, 0, len(f.trained))
	for v := range f.trained {
		vehicles = append(vehicles, v)
	}
	sort.Slice(vehicles, func(i, j int) bool { return vehicles[i] < vehicles[j] })
	for _, v := range vehicles {
		upd := f.trained[v]
		p := Payload{
			Tag:        tagUpdate,
			Round:      round,
			Model:      upd.model,
			DataAmount: upd.weight,
			Provenance: []sim.AgentID{v},
		}
		if _, err := env.Send(v, env.Server(), comm.KindV2C, p); err != nil {
			env.Metrics().Add(metrics.CounterDiscardedModels, 1)
			env.Logf("fedavg: round %d: return from %v: %v", round, v, err)
			continue
		}
		f.awaiting++
	}
	f.maybeAggregate(env)
}

func (f *FederatedAveraging) maybeAggregate(env Env) {
	if !f.roundEnded || f.awaiting > 0 {
		return
	}
	tr := env.Tracer()
	if len(f.collected) > 0 {
		// The aggregate phase is an instant child span of the round.
		aggSpan := tr.Begin(trace.KindRound, "aggregate")
		tr.AttrInt(aggSpan, "models", int64(len(f.collected)))
		global, err := env.Aggregate(f.collected, f.weights)
		if err != nil {
			env.Logf("fedavg: round %d: aggregate: %v", f.round, err)
			tr.EndWith(aggSpan, "status", "error")
		} else {
			env.SetModel(env.Server(), global)
			tr.End(aggSpan)
		}
	}
	recordGlobalAccuracy(env, f.round, len(f.collected))
	recordProvenance(env, len(f.provenance))
	tr.AttrInt(f.roundSpan, "collected", int64(len(f.collected)))
	tr.End(f.roundSpan)
	tr.SetScope(0)
	f.roundSpan = 0
	scheduleNextRound(env, "fedavg", f.roundStart, f.cfg.RoundDuration, f.cfg.ServerOverhead, func() { f.startRound(env) })
}

// scheduleNextRound starts the next round once the current one's window
// and the server overhead have passed, or at once if collection already
// ran past that instant.
func scheduleNextRound(env Env, name string, roundStart sim.Time, roundDuration, serverOverhead sim.Duration, start func()) {
	next := roundStart.Add(roundDuration).Add(serverOverhead)
	delay := next.Sub(env.Now())
	if delay < 0 {
		delay = 0
	}
	if err := env.After(delay, start); err != nil {
		env.Logf("%s: schedule next round: %v", name, err)
		env.Stop()
	}
}

// recordProvenance records how many distinct vehicles have contributed to
// the global model so far — the data-provenance metric of §3 req. 4.
func recordProvenance(env Env, distinct int) {
	if err := env.Metrics().Record(metrics.SeriesDistinctContributors, env.Now(), float64(distinct)); err != nil {
		env.Logf("metrics: %v", err)
	}
}

// recordGlobalAccuracy evaluates the server model on the held-out test set
// and records the round's accuracy and contribution count.
func recordGlobalAccuracy(env Env, round, contributions int) {
	rec := env.Metrics()
	rec.Add(metrics.CounterRounds, 1)
	if err := rec.Record(metrics.SeriesRoundContributions, env.Now(), float64(contributions)); err != nil {
		env.Logf("metrics: %v", err)
	}
	global := env.Model(env.Server())
	if global == nil {
		return
	}
	acc, err := env.TestAccuracy(global)
	if err != nil {
		env.Logf("accuracy eval failed in round %d: %v", round, err)
		return
	}
	if err := rec.Record(metrics.SeriesAccuracy, env.Now(), acc); err != nil {
		env.Logf("metrics: %v", err)
	}
}
