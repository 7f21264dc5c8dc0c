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

// collectorRole is everything that tells the two collector strategies
// apart. A collector gathers models for the server: the server sends it the
// global model w, it forwards w over V2X to the vehicles it encounters,
// folds their retrained models into one aggregate (Federated Averaging is
// associative, see ml.FedAvg), and returns that aggregate at round end.
// OPP's collectors are reporter vehicles; RSU-assisted's are road-side
// units. Each constructor fixes its role.
type collectorRole struct {
	// name is the strategy name, used in spans, logs, and errors.
	name string
	// pick chooses the round's collectors.
	pick func(env Env) []sim.AgentID
	// uplink is the server <-> collector link.
	uplink comm.Kind
	// retrainFirst makes each collector retrain w itself before offering
	// it, its own model opening the aggregate.
	retrainFirst bool
	// provenance records the distinct_contributors series each round.
	provenance bool
}

// collectorTiming is the round timing both collector strategies share.
type collectorTiming struct {
	rounds          int
	roundDuration   sim.Duration
	serverOverhead  sim.Duration
	exchangeTimeout sim.Duration
}

func (t collectorTiming) validate() error {
	switch {
	case t.rounds <= 0:
		return fmt.Errorf("strategy: non-positive round count %d", t.rounds)
	case t.roundDuration <= 0:
		return fmt.Errorf("strategy: non-positive round duration %v", t.roundDuration)
	case t.serverOverhead < 0:
		return fmt.Errorf("strategy: negative server overhead %v", t.serverOverhead)
	case t.exchangeTimeout <= 0:
		return fmt.Errorf("strategy: non-positive exchange timeout %v", t.exchangeTimeout)
	default:
		return nil
	}
}

// collectorState tracks one collector's progress within a round.
type collectorState struct {
	global      *ml.Snapshot  // the w received from the server, forwarded to peers
	agg         *ml.Snapshot  // intermediate aggregate (own retrain ⊕ peer models)
	weight      float64       // accumulated data amount behind agg
	sources     []sim.AgentID // vehicles folded into agg (provenance)
	retrainDone bool
	contacted   map[sim.AgentID]bool // peers offered this round
	pendingPeer sim.AgentID          // peer with an exchange in flight (NoAgent if none)
	exchanges   int                  // successful V2X model collections
	exchSpan    trace.SpanID         // trace span of the in-flight exchange (0 if none)
}

// endExchange frees the collector's exchange slot and closes the
// exchange's span with the given status.
func (st *collectorState) endExchange(env Env, status string) {
	st.pendingPeer = sim.NoAgent
	env.Tracer().EndWith(st.exchSpan, "status", status)
	st.exchSpan = 0
}

// servingState tracks a vehicle retraining a forwarded model.
type servingState struct {
	collector sim.AgentID
	round     int
}

// collector is the encounter-exchange protocol OPP and RSU-assisted share:
// the paper's Figure 3 state machine, parameterized by role.
type collector struct {
	Base
	role   collectorRole
	timing collectorTiming

	round      int
	roundStart sim.Time
	roundEnded bool
	roundSpan  trace.SpanID
	collectors map[sim.AgentID]*collectorState
	serving    map[sim.AgentID]servingState
	awaiting   int
	collected  []*ml.Snapshot
	weights    []float64
	contribs   int
	provenance map[sim.AgentID]bool
}

// Start implements Strategy.
func (c *collector) Start(env Env) error {
	if env.Model(env.Server()) == nil {
		return fmt.Errorf("strategy: %s: server has no initial model", c.role.name)
	}
	c.provenance = make(map[sim.AgentID]bool)
	c.startRound(env)
	return nil
}

func (c *collector) startRound(env Env) {
	if c.round >= c.timing.rounds {
		env.Logf("%s: %d rounds complete at %v", c.role.name, c.round, env.Now())
		env.Stop()
		return
	}
	c.round++
	c.roundStart = env.Now()
	c.roundEnded = false
	c.collectors = make(map[sim.AgentID]*collectorState)
	c.serving = make(map[sim.AgentID]servingState)
	c.awaiting = 0
	c.collected = c.collected[:0]
	c.weights = c.weights[:0]
	c.contribs = 0

	// See FederatedAveraging.startRound: the round span scopes every
	// transfer, train, eval, and exchange the round causes.
	tr := env.Tracer()
	c.roundSpan = tr.BeginRoot(trace.KindRound, "round")
	tr.AttrInt(c.roundSpan, "round", int64(c.round))
	tr.Attr(c.roundSpan, "strategy", c.role.name)
	tr.SetScope(c.roundSpan)

	global := env.Model(env.Server())
	for _, id := range c.role.pick(env) {
		p := Payload{Tag: tagGlobal, Round: c.round, Model: global}
		if _, err := env.Send(env.Server(), id, c.role.uplink, p); err != nil {
			env.Logf("%s: round %d: send global to %v: %v", c.role.name, c.round, id, err)
			continue
		}
		c.collectors[id] = &collectorState{
			global:      global,
			retrainDone: !c.role.retrainFirst,
			contacted:   make(map[sim.AgentID]bool),
			pendingPeer: sim.NoAgent,
		}
	}
	round := c.round
	if err := env.After(c.timing.roundDuration, func() { c.endRound(env, round) }); err != nil {
		env.Logf("%s: schedule round end: %v", c.role.name, err)
		env.Stop()
	}
}

// OnDeliver implements Strategy.
func (c *collector) OnDeliver(env Env, msg *comm.Message, p Payload) {
	switch p.Tag {
	case tagGlobal:
		st, ok := c.collectors[msg.To]
		if !ok || p.Round != c.round || c.roundEnded {
			return
		}
		if st.retrainDone {
			// Nothing to retrain first: engage the vehicles in range.
			c.tryExchanges(env, msg.To, st)
		} else if err := env.Train(msg.To, p.Model); err != nil {
			env.Logf("%s: round %d: collector %v train: %v", c.role.name, c.round, msg.To, err)
		}
	case tagOffer:
		c.handleOffer(env, msg, p)
	case tagRetrained:
		c.handleRetrained(env, msg, p)
	case tagDecline:
		if st, ok := c.collectors[msg.To]; ok && p.Round == c.round && st.pendingPeer == msg.From {
			st.endExchange(env, "declined")
			c.tryExchanges(env, msg.To, st)
		}
	case tagUpdate:
		if msg.To != env.Server() || p.Round != c.round {
			return
		}
		c.awaiting--
		c.collected = append(c.collected, p.Model)
		c.weights = append(c.weights, p.DataAmount)
		c.contribs += p.Contributions
		for _, v := range p.Provenance {
			c.provenance[v] = true
		}
		c.maybeAggregate(env)
	}
}

// handleOffer runs on a vehicle receiving a forwarded global model.
func (c *collector) handleOffer(env Env, msg *comm.Message, p Payload) {
	v := msg.To
	if p.Round != c.round || c.roundEnded || c.collectors[v] != nil {
		c.decline(env, v, msg.From, p.Round)
		return
	}
	if _, busy := c.serving[v]; busy || env.IsBusy(v) || env.DataAmount(v) == 0 {
		c.decline(env, v, msg.From, p.Round)
		return
	}
	if err := env.Train(v, p.Model); err != nil {
		c.decline(env, v, msg.From, p.Round)
		return
	}
	c.serving[v] = servingState{collector: msg.From, round: p.Round}
}

func (c *collector) decline(env Env, from, to sim.AgentID, round int) {
	p := Payload{Tag: tagDecline, Round: round}
	if _, err := env.Send(from, to, comm.KindV2X, p); err != nil {
		// The collector's exchange timeout will free the slot.
		env.Logf("%s: decline %v -> %v: %v", c.role.name, from, to, err)
	}
}

// handleRetrained runs on a collector receiving a peer's retrained model:
// the intermediate aggregation step of Figure 3. Offers go out only after
// a collector that retrains first has opened agg with its own model, and a
// retrained reply carries the offer's round, so agg is nil here only for a
// collector that does not retrain first.
func (c *collector) handleRetrained(env Env, msg *comm.Message, p Payload) {
	st, ok := c.collectors[msg.To]
	if !ok || p.Round != c.round {
		return
	}
	if st.pendingPeer == msg.From {
		st.endExchange(env, "collected")
	}
	if st.agg == nil {
		st.agg = p.Model
		st.weight = p.DataAmount
	} else {
		agg, err := env.Aggregate([]*ml.Snapshot{st.agg, p.Model}, []float64{st.weight, p.DataAmount})
		if err != nil {
			env.Logf("%s: round %d: collector %v aggregate: %v", c.role.name, c.round, msg.To, err)
			return
		}
		st.agg = agg
		st.weight += p.DataAmount
	}
	st.sources = append(st.sources, msg.From)
	st.exchanges++
	c.tryExchanges(env, msg.To, st)
}

// OnSendFailed implements Strategy.
func (c *collector) OnSendFailed(env Env, msg *comm.Message, p Payload, reason error) {
	switch p.Tag {
	case tagGlobal:
		env.Logf("%s: round %d: global to %v failed: %v", c.role.name, p.Round, msg.To, reason)
	case tagOffer:
		if st, ok := c.collectors[msg.From]; ok && p.Round == c.round && st.pendingPeer == msg.To {
			st.endExchange(env, "offer-failed")
			c.tryExchanges(env, msg.From, st)
		}
	case tagRetrained:
		// Peer left range or collector gone: the retrained model is
		// discarded (paper: "Else, discard w").
		env.Metrics().Add(metrics.CounterDiscardedModels, 1)
	case tagUpdate:
		if p.Round != c.round {
			return
		}
		c.awaiting--
		env.Metrics().Add(metrics.CounterDiscardedModels, 1)
		c.maybeAggregate(env)
	}
}

// OnTrainDone implements Strategy.
func (c *collector) OnTrainDone(env Env, id sim.AgentID, trained *ml.Snapshot, loss float64) {
	if st, ok := c.collectors[id]; ok {
		if st.retrainDone {
			return
		}
		// The collector's own retrain opens the aggregate with its local
		// data amount; no peer model can precede it (see handleRetrained).
		st.retrainDone = true
		st.agg = trained
		st.weight = float64(env.DataAmount(id))
		st.sources = append(st.sources, id)
		c.tryExchanges(env, id, st)
		return
	}
	if sv, ok := c.serving[id]; ok {
		delete(c.serving, id)
		if sv.round != c.round || c.roundEnded {
			env.Metrics().Add(metrics.CounterDiscardedModels, 1)
			return
		}
		// Send the retrained model back "if reporter is still in range.
		// Else, discard w."
		p := Payload{Tag: tagRetrained, Round: sv.round, Model: trained, DataAmount: float64(env.DataAmount(id))}
		if _, err := env.Send(id, sv.collector, comm.KindV2X, p); err != nil {
			env.Metrics().Add(metrics.CounterDiscardedModels, 1)
		}
	}
}

// OnTrainAborted implements Strategy.
func (c *collector) OnTrainAborted(env Env, id sim.AgentID) {
	if _, ok := c.serving[id]; ok {
		delete(c.serving, id)
		env.Metrics().Add(metrics.CounterDiscardedModels, 1)
	}
}

// OnEncounter implements Strategy.
func (c *collector) OnEncounter(env Env, a, b sim.AgentID) {
	c.maybeOffer(env, a, b)
	c.maybeOffer(env, b, a)
}

// tryExchanges scans a collector's current neighborhood for fresh peers
// (encounters that began while the collector was busy would otherwise be
// missed).
func (c *collector) tryExchanges(env Env, id sim.AgentID, st *collectorState) {
	if c.roundEnded || st.pendingPeer != sim.NoAgent || !st.retrainDone {
		return
	}
	for _, peer := range env.Neighbors(id) {
		c.maybeOffer(env, id, peer)
		if st.pendingPeer != sim.NoAgent {
			return
		}
	}
}

// maybeOffer forwards the global model from collector id to peer over V2X
// if all of the protocol's preconditions hold.
func (c *collector) maybeOffer(env Env, id, peer sim.AgentID) {
	st, ok := c.collectors[id]
	if c.roundEnded || !ok || !st.retrainDone || st.pendingPeer != sim.NoAgent {
		return
	}
	if c.collectors[peer] != nil { // collectors don't pair with each other
		return
	}
	if st.contacted[peer] || env.Kind(peer) != sim.KindVehicle {
		return
	}
	if !env.IsOn(id) || !env.IsOn(peer) || env.IsBusy(peer) {
		return
	}
	p := Payload{Tag: tagOffer, Round: c.round, Model: st.global}
	if _, err := env.Send(id, peer, comm.KindV2X, p); err != nil {
		return
	}
	st.contacted[peer] = true
	st.pendingPeer = peer
	// The exchange span covers the whole offer -> retrained/decline/timeout
	// conversation and nests under the round via the tracer scope.
	tr := env.Tracer()
	st.exchSpan = tr.Begin(trace.KindEncounterExchange, "exchange")
	tr.AttrUint(st.exchSpan, "reporter", uint64(id))
	tr.AttrUint(st.exchSpan, "peer", uint64(peer))
	round := c.round
	if err := env.After(c.timing.exchangeTimeout, func() {
		if round == c.round && st.pendingPeer == peer {
			st.endExchange(env, "timeout")
			c.tryExchanges(env, id, st)
		}
	}); err != nil {
		env.Logf("%s: schedule exchange timeout: %v", c.role.name, err)
	}
}

func (c *collector) endRound(env Env, round int) {
	if round != c.round || c.roundEnded {
		return
	}
	c.roundEnded = true

	exchanges := 0
	ids := make([]sim.AgentID, 0, len(c.collectors))
	for id := range c.collectors {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		st := c.collectors[id]
		exchanges += st.exchanges
		if st.agg == nil {
			continue
		}
		p := Payload{
			Tag:           tagUpdate,
			Round:         round,
			Model:         st.agg,
			DataAmount:    st.weight,
			Contributions: len(st.sources),
			Provenance:    st.sources,
		}
		if _, err := env.Send(id, env.Server(), c.role.uplink, p); err != nil {
			// A collector that turned off before the round ended (the
			// churn cost the paper calls out) or lost its uplink discards
			// everything it collected.
			env.Metrics().Add(metrics.CounterDiscardedModels, float64(len(st.sources)))
			continue
		}
		c.awaiting++
	}
	if err := env.Metrics().Record(metrics.SeriesRoundExchanges, env.Now(), float64(exchanges)); err != nil {
		env.Logf("metrics: %v", err)
	}
	c.maybeAggregate(env)
}

func (c *collector) maybeAggregate(env Env) {
	if !c.roundEnded || c.awaiting > 0 {
		return
	}
	tr := env.Tracer()
	if len(c.collected) > 0 {
		aggSpan := tr.Begin(trace.KindRound, "aggregate")
		tr.AttrInt(aggSpan, "models", int64(len(c.collected)))
		global, err := env.Aggregate(c.collected, c.weights)
		if err != nil {
			env.Logf("%s: round %d: aggregate: %v", c.role.name, c.round, err)
			tr.EndWith(aggSpan, "status", "error")
		} else {
			env.SetModel(env.Server(), global)
			tr.End(aggSpan)
		}
	}
	recordGlobalAccuracy(env, c.round, c.contribs)
	if c.role.provenance {
		recordProvenance(env, len(c.provenance))
	}
	tr.AttrInt(c.roundSpan, "collected", int64(len(c.collected)))
	tr.End(c.roundSpan)
	tr.SetScope(0)
	c.roundSpan = 0
	scheduleNextRound(env, c.role.name, c.roundStart, c.timing.roundDuration, c.timing.serverOverhead, func() { c.startRound(env) })
}
