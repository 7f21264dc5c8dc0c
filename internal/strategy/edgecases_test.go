package strategy

import (
	"errors"
	"testing"

	"roadrunner/internal/comm"
	"roadrunner/internal/metrics"
	"roadrunner/internal/ml"
	"roadrunner/internal/sim"
)

// This file exercises the failure-handling edges of every strategy: churn
// mid-training, V2X failures after acceptance, stale-round traffic, and
// the no-op Base embeddings.

func TestBaseStrategyCallbacksAreNoOps(t *testing.T) {
	env := newMockEnv(t, 1)
	var b Base
	// None of these may panic or mutate anything observable.
	b.OnDeliver(env, &comm.Message{}, Payload{})
	b.OnSendFailed(env, &comm.Message{}, Payload{}, errors.New("x"))
	b.OnTrainDone(env, 1, nil, 0)
	b.OnTrainAborted(env, 1)
	b.OnEncounter(env, 1, 2)
	b.OnPowerChange(env, 1, true)
	if len(env.sends) != 0 || len(env.trains) != 0 {
		t.Fatal("Base callbacks had side effects")
	}
}

func TestOppOfferSendFailureFreesSlot(t *testing.T) {
	s, env := newOppUnderTest(t)
	reporters := startRoundWithReporters(t, s, env)
	r := reporters[0]
	peer := pickNonReporter(env, reporters)

	s.OnEncounter(env, r, peer)
	offer := env.sendsWith(tagOffer)[0]
	if s.collectors[r].pendingPeer != peer {
		t.Fatal("slot not claimed")
	}
	// The offer dies in flight (peer left range).
	env.failSend(s, offer, comm.ErrOutOfRange)
	if s.collectors[r].pendingPeer != sim.NoAgent {
		t.Fatal("offer failure did not free the exchange slot")
	}
	// The reporter may immediately engage another neighbor.
	other := sim.NoAgent
	for _, v := range env.vehicles {
		if v != r && v != reporters[1] && v != peer {
			other = v
			break
		}
	}
	s.OnEncounter(env, r, other)
	if got := env.sendsWith(tagOffer); len(got) != 1 {
		t.Fatalf("reporter could not re-engage after failed offer: %d offers", len(got))
	}
}

func TestOppUpdateSendFailureCompletesRound(t *testing.T) {
	s, env := newOppUnderTest(t)
	startRoundWithReporters(t, s, env)
	env.advance(200)
	updates := env.sendsWith(tagUpdate)
	if len(updates) != 2 {
		t.Fatalf("%d updates", len(updates))
	}
	// Both uploads die in flight.
	env.failSend(s, updates[0], comm.ErrSenderOff)
	env.failSend(s, updates[1], comm.ErrDropped)
	if got := env.rec.Counter(metrics.CounterRounds); got != 1 {
		t.Fatalf("round wedged after update failures: rounds=%v", got)
	}
	if got := env.rec.Counter(metrics.CounterDiscardedModels); got != 2 {
		t.Fatalf("discarded = %v, want 2", got)
	}
	// Round 2 starts.
	env.advance(211)
	if got := env.sendsWith(tagGlobal); len(got) != 2 {
		t.Fatalf("round 2 globals = %d", len(got))
	}
}

func TestOppNonReporterAbortedMidTraining(t *testing.T) {
	s, env := newOppUnderTest(t)
	reporters := startRoundWithReporters(t, s, env)
	r := reporters[0]
	peer := pickNonReporter(env, reporters)
	s.OnEncounter(env, r, peer)
	env.deliver(s, env.sendsWith(tagOffer)[0])
	// The driver turns the peer off mid-retrain.
	env.busy[peer] = false
	s.OnTrainAborted(env, peer)
	if got := env.rec.Counter(metrics.CounterDiscardedModels); got != 1 {
		t.Fatalf("discarded = %v, want 1", got)
	}
	if _, serving := s.serving[peer]; serving {
		t.Fatal("aborted peer still marked serving")
	}
}

func TestCentralizedServerAborted(t *testing.T) {
	s, env := newCentralizedUnderTest(t)
	if err := s.Start(env); err != nil {
		t.Fatal(err)
	}
	for _, u := range env.sendsWith(tagData) {
		env.deliver(s, u)
	}
	env.advance(100)
	if got := env.trainingAgents(); len(got) != 1 {
		t.Fatalf("server not training: %v", got)
	}
	// The server training is aborted (e.g. maintenance window).
	env.busy[env.server] = false
	env.trains = nil
	s.OnTrainAborted(env, env.server)
	// The next round must be able to start a fresh training.
	env.advance(200)
	if got := env.trainingAgents(); len(got) != 1 {
		t.Fatalf("server did not retrain after abort: %v", got)
	}
}

func TestCentralizedStopsAfterRounds(t *testing.T) {
	s, env := newCentralizedUnderTest(t)
	if err := s.Start(env); err != nil {
		t.Fatal(err)
	}
	// Rounds at 100, 200; trailing stop 100 later.
	env.advance(450)
	if !env.stopped {
		t.Fatal("centralized did not stop after its rounds")
	}
}

func TestCentralizedSkipsVehiclesWithNoData(t *testing.T) {
	s, env := newCentralizedUnderTest(t)
	v := env.vehicles[0]
	env.local[v] = nil
	env.data[v] = 0
	if err := s.Start(env); err != nil {
		t.Fatal(err)
	}
	for _, u := range env.sendsWith(tagData) {
		if u.msg.From == v {
			t.Fatal("dataless vehicle uploaded")
		}
	}
}

func TestGossipPowerChangeIgnoresNonVehicles(t *testing.T) {
	s, env := newGossipUnderTest(t)
	if err := s.Start(env); err != nil {
		t.Fatal(err)
	}
	before := len(env.trains)
	s.OnPowerChange(env, env.server, true)
	if len(env.trains) != before {
		t.Fatal("server power change triggered vehicle training")
	}
}

func TestGossipRetrainedVehicleRetrainsAfterPowerCycle(t *testing.T) {
	s, env := newGossipUnderTest(t)
	if err := s.Start(env); err != nil {
		t.Fatal(err)
	}
	v := env.vehicles[0]
	env.finishTraining(s, v, 61)
	// Power cycle: the vehicle already trained once, so no fresh kick.
	before := countTrains(env, v)
	s.OnPowerChange(env, v, true)
	if countTrains(env, v) != before {
		t.Fatal("already-trained vehicle re-kicked on power-on")
	}
}

func countTrains(env *mockEnv, id sim.AgentID) int {
	n := 0
	for _, tc := range env.trains {
		if tc.id == id {
			n++
		}
	}
	return n
}

func TestHybridPushFailureHarmless(t *testing.T) {
	s, env := newHybridUnderTest(t)
	if err := s.Start(env); err != nil {
		t.Fatal(err)
	}
	for i, v := range env.vehicles {
		env.finishTraining(s, v, uint64(120+i))
	}
	env.advance(100)
	for _, p := range env.sendsWith(tagPullRequest) {
		env.deliver(s, p)
	}
	for _, r := range env.sendsWith(tagPullReply) {
		env.deliver(s, r)
	}
	pushes := env.sendsWith(tagPush)
	if len(pushes) == 0 {
		t.Fatal("no pushes after sync")
	}
	target := pushes[0].msg.To
	modelBefore := env.models[target]
	env.failSend(s, pushes[0], comm.ErrReceiverOff)
	if env.models[target] != modelBefore {
		t.Fatal("failed push still replaced the vehicle's model")
	}
}

func TestHybridDelegatesChurnToGossip(t *testing.T) {
	s, env := newHybridUnderTest(t)
	if err := s.Start(env); err != nil {
		t.Fatal(err)
	}
	v := env.vehicles[0]
	// Abort the initial training via the hybrid's delegation.
	env.busy[v] = false
	env.trains = nil
	s.OnTrainAborted(env, v)
	// Power cycling the not-yet-trained vehicle re-kicks training through
	// the gossip layer.
	s.OnPowerChange(env, v, true)
	if countTrains(env, v) != 1 {
		t.Fatalf("hybrid power-change delegation broken: %d trainings", countTrains(env, v))
	}
}

func TestRSUAssistedOfferFailureFreesSlot(t *testing.T) {
	s, env := newRSUUnderTest(t)
	if err := s.Start(env); err != nil {
		t.Fatal(err)
	}
	for _, g := range env.sendsWith(tagGlobal) {
		env.deliver(s, g)
	}
	rsu := env.rsus[0]
	vehicle := env.vehicles[0]
	s.OnEncounter(env, rsu, vehicle)
	offer := env.sendsWith(tagOffer)[0]
	env.failSend(s, offer, comm.ErrOutOfRange)
	if s.collectors[rsu].pendingPeer != sim.NoAgent {
		t.Fatal("failed offer did not free the RSU's slot")
	}
}

func TestRSUAssistedBusyVehicleDeclines(t *testing.T) {
	s, env := newRSUUnderTest(t)
	if err := s.Start(env); err != nil {
		t.Fatal(err)
	}
	for _, g := range env.sendsWith(tagGlobal) {
		env.deliver(s, g)
	}
	rsu := env.rsus[0]
	vehicle := env.vehicles[0]
	s.OnEncounter(env, rsu, vehicle)
	offer := env.sendsWith(tagOffer)[0]
	env.busy[vehicle] = true
	env.deliver(s, offer)
	declines := env.sendsWith(tagDecline)
	if len(declines) != 1 {
		t.Fatalf("%d declines, want 1", len(declines))
	}
	env.deliver(s, declines[0])
	if s.collectors[rsu].pendingPeer != sim.NoAgent {
		t.Fatal("decline did not free the RSU slot")
	}
}

func TestRSUAssistedVehicleAbortedMidTraining(t *testing.T) {
	s, env := newRSUUnderTest(t)
	if err := s.Start(env); err != nil {
		t.Fatal(err)
	}
	for _, g := range env.sendsWith(tagGlobal) {
		env.deliver(s, g)
	}
	rsu := env.rsus[0]
	vehicle := env.vehicles[0]
	s.OnEncounter(env, rsu, vehicle)
	env.deliver(s, env.sendsWith(tagOffer)[0])
	env.busy[vehicle] = false
	env.trains = nil
	s.OnTrainAborted(env, vehicle)
	if got := env.rec.Counter(metrics.CounterDiscardedModels); got != 1 {
		t.Fatalf("discarded = %v, want 1", got)
	}
}

func TestRSUAssistedRetrainedReturnFailureDiscards(t *testing.T) {
	s, env := newRSUUnderTest(t)
	if err := s.Start(env); err != nil {
		t.Fatal(err)
	}
	for _, g := range env.sendsWith(tagGlobal) {
		env.deliver(s, g)
	}
	rsu := env.rsus[0]
	vehicle := env.vehicles[0]
	s.OnEncounter(env, rsu, vehicle)
	env.deliver(s, env.sendsWith(tagOffer)[0])
	env.finishTraining(s, vehicle, 81)
	retrained := env.sendsWith(tagRetrained)
	if len(retrained) != 1 {
		t.Fatalf("%d retrained", len(retrained))
	}
	env.failSend(s, retrained[0], comm.ErrOutOfRange)
	if got := env.rec.Counter(metrics.CounterDiscardedModels); got != 1 {
		t.Fatalf("discarded = %v", got)
	}
	if s.collectors[rsu].exchanges != 0 {
		t.Fatal("failed exchange counted")
	}
}

func TestRSUAssistedUpdateFailureDiscardsCollected(t *testing.T) {
	s, env := newRSUUnderTest(t)
	if err := s.Start(env); err != nil {
		t.Fatal(err)
	}
	for _, g := range env.sendsWith(tagGlobal) {
		env.deliver(s, g)
	}
	rsu := env.rsus[0]
	vehicle := env.vehicles[0]
	s.OnEncounter(env, rsu, vehicle)
	env.deliver(s, env.sendsWith(tagOffer)[0])
	env.finishTraining(s, vehicle, 82)
	env.deliver(s, env.sendsWith(tagRetrained)[0])
	env.advance(200)
	updates := env.sendsWith(tagUpdate)
	if len(updates) != 1 {
		t.Fatalf("%d updates", len(updates))
	}
	env.failSend(s, updates[0], comm.ErrDropped)
	if got := env.rec.Counter(metrics.CounterRounds); got != 1 {
		t.Fatalf("round wedged: %v", got)
	}
	if got := env.rec.Counter(metrics.CounterDiscardedModels); got != 1 {
		t.Fatalf("discarded = %v", got)
	}
}

// snapshotHelperSanity guards the mock itself: distinct seeds produce
// distinct snapshots (otherwise aggregation tests are vacuous).
func TestMockSnapshotsDiffer(t *testing.T) {
	a := testSnapshot(t, 1)
	b := testSnapshot(t, 2)
	same := true
	for i := range a.Weights {
		if a.Weights[i] != b.Weights[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("testSnapshot seeds do not differentiate weights")
	}
	var x ml.Snapshot = *a
	_ = x
}
