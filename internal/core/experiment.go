package core

import (
	"errors"
	"fmt"
	"time"

	"roadrunner/internal/channel"
	"roadrunner/internal/comm"
	"roadrunner/internal/faults"
	"roadrunner/internal/hw"
	"roadrunner/internal/metrics"
	"roadrunner/internal/ml"
	"roadrunner/internal/mobility"
	"roadrunner/internal/roadnet"
	"roadrunner/internal/sim"
	"roadrunner/internal/strategy"
	"roadrunner/internal/trace"
)

// Experiment is one fully wired simulation run: agents, traces, channels,
// data, models, hardware units, metrics, and a learning strategy. Create it
// with New, run it once with Run.
type Experiment struct {
	cfg   Config
	strat strategy.Strategy

	engine   *sim.Engine
	registry *sim.Registry
	replayer *mobility.Replayer
	network  *comm.Network
	recorder *metrics.Recorder
	injector *faults.Injector

	server   sim.AgentID
	vehicles []sim.AgentID // vehicles[i] replays trace i
	rsus     []sim.AgentID
	rsuPos   []roadnet.Point

	world   *world // the vehicles' local data is world.part(i)
	testSet []ml.Example
	models  map[sim.AgentID]*ml.Snapshot
	units   map[sim.AgentID]*hw.Unit

	trainFLOPs float64
	pending    map[sim.AgentID][]pendingTrain // outstanding training completions (one per busy HU slot)

	spatial *mobility.SpatialIndex
	tracker *mobility.EncounterTracker
	tickCur *mobility.Cursor

	// onState is the flat per-spatial-slot power state (vehicles first,
	// then RSUs), maintained by the power-change listener so the tick loop
	// reads a contiguous bool array instead of chasing agent pointers. It
	// is initialized from the registry after construction-time transitions
	// have already fired.
	onState []bool

	// agentIdx maps every positioned agent to its role and slot, so the
	// comm layer's per-message position lookups are O(1) instead of
	// scanning the RSU and vehicle lists. The cloud server is absent: it
	// has no position.
	agentIdx map[sim.AgentID]agentRef

	stratRNG *sim.RNG
	trainRNG *sim.RNG

	// tracer is nil unless cfg.Trace: the disabled tracer costs one nil
	// check per emission point and zero allocations, keeping the traced
	// and untraced hot paths byte-identical in recorded results.
	tracer *trace.Tracer

	// chanLog is the channel-trace recorder, nil unless cfg.ChannelRecord.
	chanLog *channel.Log

	accCache *snapshotAccCache
	horizon  sim.Time
	ran      bool

	// net is the network every train task and serial evaluation loads its
	// snapshot into (loadModel), nil until the first.
	net *ml.Network
}

// pendingTrain is one outstanding training occupation: the completion
// event (cancelable on shutdown) and its trace span, so an abort can
// close the span with the right status.
type pendingTrain struct {
	ev   sim.Event
	span trace.SpanID
}

// Result bundles an experiment run's outputs.
type Result struct {
	// Metrics holds all series and counters recorded during the run.
	Metrics *metrics.Recorder
	// Comm maps channel names to their volume statistics.
	Comm map[string]comm.Stats
	// End is the simulated instant the run finished.
	End sim.Time
	// Wall is the host time the run took.
	Wall time.Duration
	// FinalAccuracy is the last recorded global accuracy (NaN-free: zero
	// when never recorded).
	FinalAccuracy float64
	// EventsProcessed counts executed simulation events.
	EventsProcessed uint64
	// Trace is the run's span trace, nil unless Config.Trace was set. It
	// is excluded from CanonicalBytes — the trace has its own canonical
	// encoding (trace.Trace.CanonicalBytes) with its own byte-identity
	// regression tests.
	Trace *trace.Trace
	// ChannelLog is the run's channel trace, nil unless
	// Config.ChannelRecord was set. Like Trace it is excluded from
	// CanonicalBytes; its canonical form is the chantrace CSV
	// (channel.Log.WriteCSV), which the oracle fitter consumes.
	ChannelLog *channel.Log
}

// New builds an experiment from the configuration and strategy. All module
// randomness is forked from cfg.Seed, so (cfg, strategy) fully determines
// the run.
func New(cfg Config, strat strategy.Strategy) (*Experiment, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if strat == nil {
		return nil, fmt.Errorf("core: nil strategy")
	}
	root := sim.NewRNG(cfg.Seed)

	e := &Experiment{
		cfg:      cfg,
		strat:    strat,
		engine:   sim.NewEngine(),
		recorder: metrics.NewRecorder(),
		models:   make(map[sim.AgentID]*ml.Snapshot),
		units:    make(map[sim.AgentID]*hw.Unit),
		pending:  make(map[sim.AgentID][]pendingTrain),
		tracker:  mobility.NewEncounterTracker(),
		stratRNG: root.Fork("strategy"),
		trainRNG: root.Fork("train"),
		accCache: newSnapshotAccCache(accCacheLimit),
	}
	e.registry = sim.NewRegistry(e.engine)
	if cfg.Trace {
		// The tracer reads the engine's virtual clock and consumes no
		// randomness, so traced and untraced runs are byte-identical in
		// every recorded result. Metadata is limited to run identity.
		e.tracer = trace.New(e.engine,
			trace.Attr{Key: "seed", Value: fmt.Sprintf("%d", cfg.Seed)},
			trace.Attr{Key: "strategy", Value: strat.Name()})
	}

	// The fork order below is part of the determinism contract: every fork
	// consumes one root draw, so the world's five streams are taken at their
	// fixed positions even when the world itself comes out of the slot.
	var ws worldStreams
	if cfg.TraceFile == "" {
		ws.roadnet = root.Fork("roadnet")
		ws.mobility = root.Fork("mobility")
	}
	var rsuRNG *sim.RNG
	if cfg.RSUCount > 0 {
		rsuRNG = root.Fork("rsu")
	}
	commRNG := root.Fork("comm")
	ws.proto = root.Fork("data-proto")
	ws.draw = root.Fork("data-draw")
	ws.partition = root.Fork("partition")

	w, err := worldFor(cfg, ws)
	if err != nil {
		return nil, err
	}
	e.world = w
	e.replayer = w.replayer
	e.testSet = w.testSet
	e.horizon = w.replayer.Horizon()
	if cfg.Horizon > 0 {
		h := sim.Time(0).Add(cfg.Horizon)
		if h < e.horizon {
			e.horizon = h
		}
	}

	if err := e.createAgents(w, rsuRNG); err != nil {
		return nil, err
	}
	if err := e.createNetwork(commRNG); err != nil {
		return nil, err
	}
	if err := e.prepareModels(root); err != nil {
		return nil, err
	}
	if err := e.schedulePower(); err != nil {
		return nil, err
	}
	e.registry.OnPowerChange(e.handlePowerChange)

	if cfg.Faults != nil && !cfg.Faults.Empty() {
		// The fault stream forks last so fault-free runs consume exactly
		// the root-RNG sequence they did before fault injection existed.
		e.injector, err = faults.NewInjector(*cfg.Faults, faults.Deps{
			Engine:   e.engine,
			Registry: e.registry,
			Network:  e.network,
			Recorder: e.recorder,
			Position: e.positionOf,
			RNG:      root.Fork("faults"),
			Tracer:   e.tracer,
		})
		if err != nil {
			return nil, err
		}
		if err := e.injector.Install(); err != nil {
			return nil, err
		}
	}

	// The channel stream forks unconditionally — after the conditional
	// "faults" fork, and root is never read again below — so enabling a
	// channel model cannot shift any other module's stream, and fault-free
	// analytic runs consume exactly the root-RNG sequence they did before
	// channel models existed.
	chRNG := root.Fork("channel")
	chModel, err := channel.New(cfg.Comm.Channel)
	if err != nil {
		return nil, err
	}
	if chModel != nil {
		if err := e.network.SetChannel(chModel, chRNG); err != nil {
			return nil, err
		}
	}
	if cfg.ChannelRecord {
		e.chanLog = channel.NewLog()
		e.network.SetChannelRecorder(e.chanLog)
	}

	cell := cfg.Comm.V2X.RangeM
	e.spatial, err = mobility.NewSpatialIndex(cell)
	if err != nil {
		return nil, err
	}
	if err := e.initTickState(w.graph); err != nil {
		return nil, err
	}
	return e, nil
}

// initTickState fixes the spatial grid to the world bounding box and seeds
// the per-slot power-state array. It must run last in New: the power-change
// listener only observes transitions after its registration, so the array
// is seeded from the registry once all construction-time transitions have
// been applied.
func (e *Experiment) initTickState(graph *roadnet.Graph) error {
	min, max, ok := roadnet.Point{}, roadnet.Point{}, false
	if graph != nil {
		min, max, ok = graph.Bounds()
	}
	if !ok {
		// Trace-file runs have no road network; the recorded samples bound
		// every interpolated position instead.
		min, max, ok = e.replayer.TraceSet().Bounds()
	}
	for _, p := range e.rsuPos {
		if !ok {
			min, max, ok = p, p, true
			continue
		}
		if p.X < min.X {
			min.X = p.X
		}
		if p.X > max.X {
			max.X = p.X
		}
		if p.Y < min.Y {
			min.Y = p.Y
		}
		if p.Y > max.Y {
			max.Y = p.Y
		}
	}
	if err := e.spatial.SetBounds(min, max); err != nil {
		return err
	}
	total := len(e.vehicles) + len(e.rsus)
	e.spatial.Reset(total)
	e.tickCur = e.replayer.NewCursor()
	e.onState = make([]bool, total)
	for i, v := range e.vehicles {
		a := e.registry.Get(v)
		e.onState[i] = a != nil && a.On()
	}
	for j, r := range e.rsus {
		a := e.registry.Get(r)
		e.onState[len(e.vehicles)+j] = a != nil && a.On()
	}
	return nil
}

// agentRef locates an agent in the experiment's per-kind slices: the
// vehicle trace index, or the RSU slot.
type agentRef struct {
	vehicle bool
	idx     int
}

// createAgents registers the server, one vehicle per trace and the RSUs;
// rsuRNG is nil without RSUs.
func (e *Experiment) createAgents(w *world, rsuRNG *sim.RNG) error {
	e.agentIdx = make(map[sim.AgentID]agentRef)
	e.server = e.registry.Add(sim.KindCloudServer).ID
	srvUnit, err := hw.NewUnit(e.cfg.ServerHW)
	if err != nil {
		return err
	}
	e.units[e.server] = srvUnit

	n := e.replayer.NumVehicles()
	e.vehicles = make([]sim.AgentID, n)
	for i := 0; i < n; i++ {
		a := e.registry.Add(sim.KindVehicle)
		e.vehicles[i] = a.ID
		e.agentIdx[a.ID] = agentRef{vehicle: true, idx: i}
		unit, err := hw.NewUnit(e.cfg.OBU)
		if err != nil {
			return err
		}
		e.units[a.ID] = unit
	}

	for i := 0; i < e.cfg.RSUCount; i++ {
		a := e.registry.Add(sim.KindRSU)
		e.rsus = append(e.rsus, a.ID)
		e.agentIdx[a.ID] = agentRef{idx: i}
		unit, err := hw.NewUnit(e.cfg.RSUHW)
		if err != nil {
			return err
		}
		e.units[a.ID] = unit
		e.rsuPos = append(e.rsuPos, e.rsuPosition(w.graph, rsuRNG, i))
	}
	return nil
}

// rsuPosition picks an RSU site: a random intersection when a road network
// is available, otherwise a random vehicle's starting position.
func (e *Experiment) rsuPosition(graph *roadnet.Graph, rng *sim.RNG, i int) roadnet.Point {
	if graph != nil && graph.NumNodes() > 0 {
		return graph.Pos(roadnet.NodeID(rng.Intn(graph.NumNodes())))
	}
	v := rng.Intn(e.replayer.NumVehicles())
	pos, _, err := e.replayer.At(v, 0)
	if err != nil {
		return roadnet.Point{}
	}
	return pos
}

func (e *Experiment) createNetwork(commRNG *sim.RNG) error {
	position := func(id sim.AgentID) (roadnet.Point, bool) {
		return e.positionOf(id)
	}
	network, err := comm.NewNetwork(e.engine, e.registry, e.cfg.Comm, position, commRNG)
	if err != nil {
		return err
	}
	network.OnDeliver(e.dispatchDelivery)
	network.OnFail(e.dispatchFailure)
	network.SetTracer(e.tracer)
	e.network = network
	return nil
}

// positionOf resolves any agent's current position; the cloud server (and
// any unknown agent) has none.
func (e *Experiment) positionOf(id sim.AgentID) (roadnet.Point, bool) {
	ref, ok := e.agentIdx[id]
	if !ok {
		return roadnet.Point{}, false
	}
	if !ref.vehicle {
		return e.rsuPos[ref.idx], true
	}
	pos, _, err := e.replayer.At(ref.idx, e.engine.Now())
	if err != nil {
		return roadnet.Point{}, false
	}
	return pos, true
}

func (e *Experiment) prepareModels(root *sim.RNG) error {
	net, err := ml.NewNetwork(e.cfg.Model, root.Fork("init-weights"))
	if err != nil {
		return err
	}
	e.models[e.server] = net.Snapshot()
	flops, err := e.cfg.Model.TrainFLOPs()
	if err != nil {
		return err
	}
	e.trainFLOPs = flops
	return nil
}

// schedulePower turns the server and RSUs on at t=0 and replays every
// vehicle's ignition transitions as simulation events.
func (e *Experiment) schedulePower() error {
	if err := e.registry.SetPower(e.server, true); err != nil {
		return err
	}
	for _, r := range e.rsus {
		if err := e.registry.SetPower(r, true); err != nil {
			return err
		}
	}
	for i, v := range e.vehicles {
		transitions, err := e.replayer.Transitions(i)
		if err != nil {
			return err
		}
		for _, tr := range transitions {
			v, on := v, tr.On
			if tr.T == 0 {
				if err := e.registry.SetPower(v, on); err != nil {
					return err
				}
				continue
			}
			if _, err := e.engine.Schedule(tr.T, func() {
				if err := e.registry.SetPower(v, on); err != nil {
					e.Logf("core: set power %v: %v", v, err)
				}
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// handlePowerChange aborts pending training of agents that shut off and
// forwards the transition to the strategy.
func (e *Experiment) handlePowerChange(id sim.AgentID, on bool) {
	if ref, ok := e.agentIdx[id]; ok && e.onState != nil {
		slot := ref.idx
		if !ref.vehicle {
			slot += len(e.vehicles)
		}
		e.onState[slot] = on
	}
	if !on {
		if tasks, ok := e.pending[id]; ok {
			delete(e.pending, id)
			for _, p := range tasks {
				p.ev.Cancel()
				e.tracer.EndWith(p.span, "status", "aborted")
				e.strat.OnTrainAborted(e, id)
			}
		}
	}
	e.strat.OnPowerChange(e, id, on)
}

// dispatchDelivery routes a successful transfer to the strategy.
func (e *Experiment) dispatchDelivery(msg *comm.Message) {
	p, ok := msg.Payload.(strategy.Payload)
	if !ok {
		e.Logf("core: delivery %d carries unexpected payload type", msg.ID)
		return
	}
	e.countDelivered(msg)
	e.strat.OnDeliver(e, msg, p)
}

func (e *Experiment) dispatchFailure(msg *comm.Message, reason error) {
	// Fault-attributed failures are counted regardless of payload type, so
	// the per-fault counters stay conserved against comm.Stats.
	var faultKind string
	switch {
	case errors.Is(reason, comm.ErrBlackout):
		e.recorder.Add(metrics.CounterFaultBlackoutFails, 1)
		faultKind = "blackout"
	case errors.Is(reason, comm.ErrBurstDropped):
		e.recorder.Add(metrics.CounterFaultBurstDrops, 1)
		faultKind = "burst"
	}
	if faultKind != "" {
		// An instant span ties the fault counter increment to the trace
		// timeline; the transfer span itself was closed by the comm layer.
		span := e.tracer.Begin(trace.KindTransfer, "fault-drop")
		e.tracer.Attr(span, "fault", faultKind)
		e.tracer.AttrUint(span, "msg", uint64(msg.ID))
		e.tracer.AttrErr(span, "error", reason)
		e.tracer.End(span)
	}
	p, ok := msg.Payload.(strategy.Payload)
	if !ok {
		return
	}
	e.strat.OnSendFailed(e, msg, p, reason)
}

func (e *Experiment) countDelivered(msg *comm.Message) {
	switch msg.Kind {
	case comm.KindV2C:
		e.recorder.Add(metrics.CounterV2CBytes, float64(msg.SizeBytes))
	case comm.KindV2X:
		e.recorder.Add(metrics.CounterV2XBytes, float64(msg.SizeBytes))
	}
}

// tick runs the periodic core-simulator pass: update the encounter state
// from current positions and notify the strategy of new encounters. The
// pass is batched over contiguous per-slot arrays — cursor-based trace
// replay, the listener-maintained onState array, and incremental spatial
// updates — so its cost is O(fleet) with no per-agent pointer chasing, no
// index rebuild, and no steady-state allocation.
func (e *Experiment) tick() {
	now := e.engine.Now()
	tickSpan := e.tracer.Begin(trace.KindTick, "tick")
	nVeh := len(e.vehicles)
	onCount := 0
	for i := 0; i < nVeh; i++ {
		pos, _, err := e.replayer.AtCursor(e.tickCur, i, now)
		// On a replay error the slot goes inactive, so a stale position can
		// never produce a phantom encounter.
		active := err == nil && e.onState[i]
		if err := e.spatial.Update(i, pos, active); err != nil {
			e.Logf("core: spatial update: %v", err)
			e.tracer.EndWith(tickSpan, "status", "error")
			return
		}
		if active {
			onCount++
		}
	}
	for j := range e.rsus {
		slot := nVeh + j
		if err := e.spatial.Update(slot, e.rsuPos[j], e.onState[slot]); err != nil {
			e.Logf("core: spatial update: %v", err)
			e.tracer.EndWith(tickSpan, "status", "error")
			return
		}
	}
	pairs := e.spatial.PairsWithin(e.cfg.Comm.V2X.RangeM)
	begins, _ := e.tracker.Update(pairs)
	if err := e.recorder.Record(metrics.SeriesVehiclesOn, now, float64(onCount)); err != nil {
		e.Logf("core: metrics: %v", err)
	}
	e.tracer.AttrInt(tickSpan, "on", int64(onCount))
	e.tracer.AttrInt(tickSpan, "encounters", int64(len(begins)))
	e.tracer.End(tickSpan)
	for _, p := range begins {
		a, b := e.indexToAgent(p.A), e.indexToAgent(p.B)
		e.strat.OnEncounter(e, a, b)
	}
	next := now.Add(e.cfg.TickInterval)
	if next > e.horizon {
		return
	}
	if _, err := e.engine.Schedule(next, e.tick); err != nil {
		e.Logf("core: schedule tick: %v", err)
	}
}

// indexToAgent maps a spatial-index slot back to an agent ID.
func (e *Experiment) indexToAgent(i int) sim.AgentID {
	if i < len(e.vehicles) {
		return e.vehicles[i]
	}
	return e.rsus[i-len(e.vehicles)]
}

// Run executes the experiment once and returns its results. A second call
// is an error.
func (e *Experiment) Run() (*Result, error) {
	if e.ran {
		return nil, fmt.Errorf("core: experiment already ran")
	}
	e.ran = true
	// Wall-clock here measures harness cost only; no simulated quantity
	// depends on it.
	start := time.Now() //roadlint:allow wallclock harness timing, reported as Result.Wall

	if _, err := e.engine.Schedule(0, e.tick); err != nil {
		return nil, err
	}
	if err := e.strat.Start(e); err != nil {
		return nil, fmt.Errorf("core: strategy start: %w", err)
	}
	if err := e.engine.Run(e.horizon); err != nil && err != sim.ErrStopped {
		return nil, err
	}
	e.finalizeCounters()
	// Spans still open at the horizon (in-flight trains, unclosed fault
	// windows) are truncated at the final instant so exports never carry
	// dangling intervals.
	e.tracer.Finish(e.engine.Now())

	res := &Result{
		Metrics:         e.recorder,
		Comm:            map[string]comm.Stats{},
		End:             e.engine.Now(),
		Wall:            time.Since(start), //roadlint:allow wallclock harness timing, reported as Result.Wall
		EventsProcessed: e.engine.Processed(),
		Trace:           e.tracer.Snapshot(),
		ChannelLog:      e.chanLog,
	}
	for _, k := range comm.Kinds() {
		res.Comm[k.String()] = e.network.StatsFor(k)
	}
	if s := e.recorder.Series(metrics.SeriesAccuracy); s != nil {
		if last, ok := s.Last(); ok {
			res.FinalAccuracy = last.Value
		}
	}
	return res, nil
}

// finalizeCounters folds per-unit compute accounting into the recorder.
func (e *Experiment) finalizeCounters() {
	var vehicleBusy float64
	for _, v := range e.vehicles {
		vehicleBusy += e.units[v].BusySeconds()
	}
	e.recorder.Add("vehicle_compute_seconds", vehicleBusy)
	e.recorder.Add("server_compute_seconds", e.units[e.server].BusySeconds())
}

// Recorder exposes the experiment's metrics (also available via Result).
func (e *Experiment) Recorder() *metrics.Recorder { return e.recorder }

// Network exposes the communication module for post-run inspection.
func (e *Experiment) Network() *comm.Network { return e.network }

// Horizon returns the run's simulated-time cap.
func (e *Experiment) Horizon() sim.Time { return e.horizon }
