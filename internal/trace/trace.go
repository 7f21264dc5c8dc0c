// Package trace is Roadrunner's deterministic, simulated-time span
// tracer. The paper's framework argues that evaluating a learning
// strategy requires observing the whole distributed workflow — when
// rounds start, which transfers stall, where training time goes — not
// just the final accuracy curve; DRIVE (Mavromatis et al., PAPERS.md)
// likewise treats per-link/per-event telemetry as a first-class output
// of a C-ITS oracle. This package provides that visibility without
// giving up the repo's reproducibility contract: spans are stamped with
// sim.Time from the experiment's own virtual clock (never wall time),
// span IDs are assigned in event-execution order, and attributes are
// ordered key/value pairs — so the same (config, seed, plan) triple
// emits byte-identical trace output at any GOMAXPROCS setting.
// Exporters (Chrome trace_event JSON, compact CSV, canonical bytes) live
// in export.go.
//
// Tracing is opt-in per experiment (core.Config.Trace). The disabled
// state is a nil *Tracer: every method is nil-receiver-safe and returns
// immediately, so instrumented hot paths pay one predictable branch and
// zero allocations when tracing is off. Call sites that would allocate
// while building an argument (fmt.Sprintf names, err.Error() strings)
// must either use the typed Attr helpers below — which check the
// receiver before formatting — or guard with Enabled().
package trace

import "roadrunner/internal/sim"

// Span kinds form the fixed taxonomy of the observability layer. Kind
// strings appear verbatim in every export format, so they are part of
// the byte-identity contract and must not be renamed casually.
const (
	// KindRound covers one strategy round from announcement to
	// aggregation (fedavg, opportunistic, rsu-assisted). Children: the
	// phase's trains, transfers, and exchanges.
	KindRound = "round"
	// KindTrain covers one on-vehicle training occupation, from
	// TrainOnData acceptance to completion or abort.
	KindTrain = "train"
	// KindEval is an instantaneous test-set evaluation point.
	KindEval = "eval"
	// KindTransfer covers one network message from Send to delivery
	// or failure, including conditions-induced drops.
	KindTransfer = "transfer"
	// KindEncounterExchange covers one offer→retrain→collect exchange
	// between a collector (an OPP reporter or an RSU) and a peer.
	KindEncounterExchange = "encounter-exchange"
	// KindFaultWindow covers one scheduled fault activation, from its
	// start event to its end event.
	KindFaultWindow = "fault-window"
	// KindTick is the core fleet tick: mobility sampling, encounter
	// scanning, and series recording.
	KindTick = "tick"
)

// SpanID identifies a span within one trace. IDs are assigned
// sequentially from 1 in Begin order — which, on the single simulation
// goroutine, is event-execution order and therefore deterministic.
// 0 is "no span" and is what every method returns on a nil tracer.
type SpanID uint32

// Attr is one ordered key/value attribute. Values are strings so the
// export formats need no per-type canonicalization rules; the typed
// helpers on Tracer format numerics with the same strconv conventions
// as core's canonical result encoding.
type Attr struct {
	Key   string
	Value string
}

// Span is one traced interval (or instant, when End == Start) of
// simulated time.
type Span struct {
	ID     SpanID
	Parent SpanID
	Kind   string
	Name   string
	Start  sim.Time
	End    sim.Time
	// Ended reports whether End was set by an explicit End call rather
	// than by Finish truncating the span at the run horizon.
	Ended bool
	Attrs []Attr
}

// Clock supplies the current simulated instant. *sim.Engine satisfies
// it; tests use fixed clocks. Wall clocks must never be adapted into
// this interface — the roadlint wallclock rule polices the package.
type Clock interface {
	Now() sim.Time
}

// Trace is a completed trace: run-level metadata plus the span list in
// ID order. It is what Tracer.Snapshot returns, what core.Result
// carries, and what the exporters consume.
type Trace struct {
	Meta  []Attr
	Spans []Span
}

// Tracer collects spans for one experiment run. It is single-goroutine
// by construction — all emission points execute on the simulation
// goroutine, matching sim.Engine's own concurrency contract — so it
// needs no locks. A nil Tracer is the disabled tracer: every method is
// a cheap no-op.
type Tracer struct {
	clock Clock
	meta  []Attr
	spans []Span
	scope SpanID
}

// New returns an enabled tracer reading simulated time from clock.
// meta attributes (seed, strategy, …) are attached to the trace as a
// whole and appear in every export.
func New(clock Clock, meta ...Attr) *Tracer {
	if clock == nil {
		return nil
	}
	return &Tracer{clock: clock, meta: meta}
}

// Enabled reports whether spans are being collected. It exists for
// call sites that must avoid building an argument (an err.Error()
// string, a formatted name) when tracing is off.
func (t *Tracer) Enabled() bool { return t != nil }

// Len returns the number of spans collected so far.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// SetScope installs the span every subsequent Begin auto-parents to,
// until the next SetScope. Strategies set their round span as the
// scope so trains, transfers, and exchanges nest under the round that
// caused them; SetScope(0) clears the scope.
func (t *Tracer) SetScope(id SpanID) {
	if t == nil {
		return
	}
	t.scope = id
}

// Scope returns the current auto-parent span, or 0.
func (t *Tracer) Scope() SpanID {
	if t == nil {
		return 0
	}
	return t.scope
}

// Begin opens a span at the current simulated instant, parented to the
// current scope. It returns the new span's ID, or 0 when disabled.
func (t *Tracer) Begin(kind, name string) SpanID {
	if t == nil {
		return 0
	}
	return t.begin(kind, name, t.scope)
}

// BeginRoot opens a span with no parent regardless of the current
// scope — fault windows, which straddle round boundaries, use it.
func (t *Tracer) BeginRoot(kind, name string) SpanID {
	if t == nil {
		return 0
	}
	return t.begin(kind, name, 0)
}

func (t *Tracer) begin(kind, name string, parent SpanID) SpanID {
	now := t.clock.Now()
	id := SpanID(len(t.spans) + 1)
	t.spans = append(t.spans, Span{
		ID:     id,
		Parent: parent,
		Kind:   kind,
		Name:   name,
		Start:  now,
		End:    now,
	})
	return id
}

// Attr appends a string attribute to an open or closed span. Unknown
// or zero IDs are ignored.
func (t *Tracer) Attr(id SpanID, key, value string) {
	if t == nil || id == 0 || int(id) > len(t.spans) {
		return
	}
	s := &t.spans[id-1]
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
}

// AttrInt formats an integer attribute. The formatting happens after
// the nil check, so disabled call sites pay no allocation.
func (t *Tracer) AttrInt(id SpanID, key string, value int64) {
	if t == nil {
		return
	}
	t.Attr(id, key, formatInt(value))
}

// AttrUint formats an unsigned integer attribute (agent IDs).
func (t *Tracer) AttrUint(id SpanID, key string, value uint64) {
	if t == nil {
		return
	}
	t.Attr(id, key, formatUint(value))
}

// AttrFloat formats a float attribute with the canonical-encoding
// convention (strconv 'g', shortest round-trip).
func (t *Tracer) AttrFloat(id SpanID, key string, value float64) {
	if t == nil {
		return
	}
	t.Attr(id, key, formatFloat(value))
}

// AttrErr records err.Error() as an attribute, calling Error() only
// when the tracer is enabled and err is non-nil.
func (t *Tracer) AttrErr(id SpanID, key string, err error) {
	if t == nil || err == nil {
		return
	}
	t.Attr(id, key, err.Error())
}

// End closes a span at the current simulated instant.
func (t *Tracer) End(id SpanID) {
	if t == nil || id == 0 || int(id) > len(t.spans) {
		return
	}
	s := &t.spans[id-1]
	if s.Ended {
		return
	}
	s.End = t.clock.Now()
	s.Ended = true
}

// EndWith appends one final attribute (typically "status") and closes
// the span — the common shape of every failure path.
func (t *Tracer) EndWith(id SpanID, key, value string) {
	if t == nil {
		return
	}
	t.Attr(id, key, value)
	t.End(id)
}

// Finish truncates every still-open span at the given instant —
// normally the run horizon — tagging it truncated="horizon" so
// exports distinguish "ran to completion" from "cut off by the end of
// the run". Experiments call it once, after the engine stops.
func (t *Tracer) Finish(at sim.Time) {
	if t == nil {
		return
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Ended {
			continue
		}
		s.End = at
		if s.End < s.Start {
			s.End = s.Start
		}
		s.Attrs = append(s.Attrs, Attr{Key: "truncated", Value: "horizon"})
	}
}

// Snapshot returns the completed trace, or nil when disabled. The
// returned Trace shares the tracer's backing arrays; emission must be
// over before exporting, which Experiment.Run guarantees.
func (t *Tracer) Snapshot() *Trace {
	if t == nil {
		return nil
	}
	return &Trace{Meta: t.meta, Spans: t.spans}
}
