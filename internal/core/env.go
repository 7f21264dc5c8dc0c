package core

import (
	"fmt"

	"roadrunner/internal/comm"
	"roadrunner/internal/metrics"
	"roadrunner/internal/ml"
	"roadrunner/internal/sim"
	"roadrunner/internal/strategy"
	"roadrunner/internal/trace"
)

// Experiment implements strategy.Env: the framework API the Learning
// Strategy Logic module programs against.
var _ strategy.Env = (*Experiment)(nil)

// Now implements strategy.Env.
func (e *Experiment) Now() sim.Time { return e.engine.Now() }

// Rand implements strategy.Env.
func (e *Experiment) Rand() *sim.RNG { return e.stratRNG }

// Server implements strategy.Env.
func (e *Experiment) Server() sim.AgentID { return e.server }

// Vehicles implements strategy.Env. The returned slice is shared; callers
// must not mutate it.
func (e *Experiment) Vehicles() []sim.AgentID { return e.vehicles }

// RSUs implements strategy.Env.
func (e *Experiment) RSUs() []sim.AgentID { return e.rsus }

// Kind implements strategy.Env.
func (e *Experiment) Kind(id sim.AgentID) sim.AgentKind {
	a := e.registry.Get(id)
	if a == nil {
		return 0
	}
	return a.Kind
}

// IsOn implements strategy.Env.
func (e *Experiment) IsOn(id sim.AgentID) bool {
	a := e.registry.Get(id)
	return a != nil && a.On()
}

// IsBusy implements strategy.Env: the agent's hardware unit has no free
// slot for further work. Vehicles have single-slot OBUs; the server HU
// runs several training operations in parallel (paper §4: "the HUs can
// run multiple operations in parallel").
func (e *Experiment) IsBusy(id sim.AgentID) bool {
	unit, ok := e.units[id]
	if !ok {
		a := e.registry.Get(id)
		return a != nil && a.Busy(e.engine.Now())
	}
	return len(e.pending[id]) >= unit.Profile().Slots
}

// DataAmount implements strategy.Env. It draws no data.
func (e *Experiment) DataAmount(id sim.AgentID) int {
	if ref, ok := e.agentIdx[id]; ok && ref.vehicle {
		return len(e.world.assign[ref.idx])
	}
	return 0
}

// LocalData implements strategy.Env: a vehicle's slice of the world's data,
// drawn on the first read by any run attached to the world; nil for other
// agents.
func (e *Experiment) LocalData(id sim.AgentID) []ml.Example {
	if ref, ok := e.agentIdx[id]; ok && ref.vehicle {
		return e.world.part(ref.idx)
	}
	return nil
}

// Model implements strategy.Env.
func (e *Experiment) Model(id sim.AgentID) *ml.Snapshot { return e.models[id] }

// SetModel implements strategy.Env.
func (e *Experiment) SetModel(id sim.AgentID, m *ml.Snapshot) { e.models[id] = m }

// Send implements strategy.Env: it sizes the payload (model wire bytes,
// raw-data bytes, or a small control envelope) and hands it to the
// communication module.
func (e *Experiment) Send(from, to sim.AgentID, kind comm.Kind, p strategy.Payload) (comm.MsgID, error) {
	size := payloadBytes(p)
	return e.network.Send(from, to, kind, size, p)
}

// payloadBytes models a payload's wire size: a fixed envelope plus the
// model snapshot and/or raw examples it carries.
func payloadBytes(p strategy.Payload) int {
	const envelope = 256
	size := envelope
	if p.Model != nil {
		size += p.Model.WireBytes()
	}
	for _, ex := range p.Data {
		size += 4*len(ex.X) + 8 // float32 features + label/length framing
	}
	return size
}

// Train implements strategy.Env.
func (e *Experiment) Train(id sim.AgentID, m *ml.Snapshot) error {
	return e.TrainOnData(id, m, e.LocalData(id))
}

// TrainOnData implements strategy.Env: it occupies the agent's hardware
// unit for the modelled duration and performs the actual SGD at completion
// time, so aborted tasks (agent shut off) cost no host compute and leak no
// state. A task that a run on the same world has already computed is taken
// from the world's memo (trainTask); its span, counters and hardware
// accounting are those of a computed task.
func (e *Experiment) TrainOnData(id sim.AgentID, m *ml.Snapshot, examples []ml.Example) error {
	if m == nil {
		return fmt.Errorf("core: train on %v: nil model", id)
	}
	if len(examples) == 0 {
		return fmt.Errorf("core: train on %v: no examples", id)
	}
	unit, ok := e.units[id]
	if !ok {
		return fmt.Errorf("core: train on %v: unknown agent", id)
	}
	dur, err := unit.TrainDuration(e.trainFLOPs, len(examples), e.cfg.Train.Epochs)
	if err != nil {
		return err
	}
	agent := e.registry.Get(id)
	if agent == nil || !agent.On() {
		return fmt.Errorf("core: train on %v: agent off or unknown", id)
	}
	if e.IsBusy(id) {
		return fmt.Errorf("core: train on %v: all %d HU slots busy", id, unit.Profile().Slots)
	}
	// Mark the registry-level busy deadline (the latest completion across
	// slots) so Agent.Busy stays meaningful for single-slot agents.
	if until := e.engine.Now().Add(dur); until > agent.BusyUntil() {
		e.registry.Release(id)
		if _, err := e.registry.Occupy(id, dur); err != nil {
			return fmt.Errorf("core: train on %v: %w", id, err)
		}
	}
	taskRNG := e.trainRNG.Fork("task")
	part := e.partOf(id, examples)
	span := e.tracer.Begin(trace.KindTrain, "train")
	e.tracer.AttrUint(span, "agent", uint64(id))
	e.tracer.AttrInt(span, "examples", int64(len(examples)))
	var ev sim.Event
	ev, err = e.engine.After(dur, func() {
		e.removePending(id, ev)
		model, loss, err := e.trainTask(m, part, examples, taskRNG)
		if err != nil {
			e.Logf("core: train on %v: %v", id, err)
			e.tracer.EndWith(span, "status", "error")
			return
		}
		unit.Record(dur)
		e.recorder.Add(metrics.CounterTrainTasks, 1)
		e.tracer.AttrFloat(span, "loss", loss)
		e.tracer.End(span)
		e.strat.OnTrainDone(e, id, model, loss)
	})
	if err != nil {
		e.registry.Release(id)
		e.tracer.EndWith(span, "status", "error")
		return err
	}
	e.pending[id] = append(e.pending[id], pendingTrain{ev: ev, span: span})
	return nil
}

// loadModel returns a network holding m's weights. It overwrites the
// weights of the experiment's one network when m has that network's
// architecture: Train and Evaluate read nothing a previous call left behind
// but the weights (gradients, optimizer, shuffle order and layer caches are
// rebuilt per call), and event callbacks run one at a time, so reuse
// changes no bit. It spares each train task and evaluation a fresh network
// and its batch buffers.
func (e *Experiment) loadModel(m *ml.Snapshot) (*ml.Network, error) {
	if e.net != nil {
		if spec := e.net.Spec(); spec.Equal(&m.Spec) {
			return e.net, e.net.SetWeights(m.Weights)
		}
	}
	net, err := ml.LoadSnapshot(m)
	if err != nil {
		return nil, err
	}
	e.net = net
	return net, nil
}

// removePending drops one completed training event from the agent's slot
// accounting.
func (e *Experiment) removePending(id sim.AgentID, ev sim.Event) {
	tasks := e.pending[id]
	for i, candidate := range tasks {
		if candidate.ev == ev {
			e.pending[id] = append(tasks[:i], tasks[i+1:]...)
			break
		}
	}
	if len(e.pending[id]) == 0 {
		delete(e.pending, id)
	}
}

// Aggregate implements strategy.Env.
func (e *Experiment) Aggregate(models []*ml.Snapshot, weights []float64) (*ml.Snapshot, error) {
	return ml.FedAvg(models, weights)
}

// TestAccuracy implements strategy.Env. Results are memoized per snapshot
// (snapshots are immutable by convention), since strategies often evaluate
// the same global model more than once. That per-run memo decides when an
// eval span is emitted; below it, evaluate may answer from the world's memo
// of weights that another run evaluated, and the span is the same.
func (e *Experiment) TestAccuracy(m *ml.Snapshot) (float64, error) {
	if m == nil {
		return 0, fmt.Errorf("core: test accuracy of nil model")
	}
	if acc, ok := e.accCache.get(m); ok {
		// Cache hits are not traced: whether an evaluation hits the memo
		// depends only on strategy call order, which is deterministic, but
		// spamming the trace with memo reads would bury the real work.
		return acc, nil
	}
	// Evaluation consumes no simulated time (an analyst-side measurement),
	// so the span is an instant.
	span := e.tracer.Begin(trace.KindEval, "eval")
	e.tracer.AttrInt(span, "samples", int64(len(e.testSet)))
	acc, err := e.evaluate(m)
	if err != nil {
		e.tracer.EndWith(span, "status", "error")
		return 0, err
	}
	e.tracer.AttrFloat(span, "accuracy", acc)
	e.tracer.End(span)
	e.accCache.put(m, acc)
	return acc, nil
}

// Neighbors implements strategy.Env: powered-on vehicles and RSUs currently
// within V2X range of id, computed from exact current positions.
func (e *Experiment) Neighbors(id sim.AgentID) []sim.AgentID {
	center, ok := e.positionOf(id)
	if !ok || !e.IsOn(id) {
		return nil
	}
	radius := e.cfg.Comm.V2X.RangeM
	var out []sim.AgentID
	consider := func(other sim.AgentID) {
		if other == id || !e.IsOn(other) {
			return
		}
		pos, ok := e.positionOf(other)
		if !ok {
			return
		}
		if center.Dist(pos) <= radius {
			out = append(out, other)
		}
	}
	for _, v := range e.vehicles {
		consider(v)
	}
	for _, r := range e.rsus {
		consider(r)
	}
	return out
}

// Reachable implements strategy.Env.
func (e *Experiment) Reachable(from, to sim.AgentID, kind comm.Kind) bool {
	return e.network.Reachable(from, to, kind)
}

// After implements strategy.Env.
func (e *Experiment) After(d sim.Duration, fn func()) error {
	_, err := e.engine.After(d, fn)
	return err
}

// Metrics implements strategy.Env.
func (e *Experiment) Metrics() *metrics.Recorder { return e.recorder }

// Tracer implements strategy.Env: the run's span tracer, nil (and safe
// to call) unless Config.Trace enabled tracing.
func (e *Experiment) Tracer() *trace.Tracer { return e.tracer }

// Stop implements strategy.Env.
func (e *Experiment) Stop() { e.engine.Stop() }

// Logf implements strategy.Env.
func (e *Experiment) Logf(format string, args ...any) {
	if e.cfg.LogWriter == nil {
		return
	}
	fmt.Fprintf(e.cfg.LogWriter, "[%v] ", e.engine.Now())
	fmt.Fprintf(e.cfg.LogWriter, format, args...)
	fmt.Fprintln(e.cfg.LogWriter)
}
