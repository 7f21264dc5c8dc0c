package strategy

import (
	"errors"
	"testing"

	"roadrunner/internal/metrics"
	"roadrunner/internal/sim"
)

func newOppUnderTest(t *testing.T) (*Opportunistic, *mockEnv) {
	t.Helper()
	s, err := NewOpportunistic(OppConfig{
		Rounds:          2,
		Reporters:       2,
		RoundDuration:   200,
		ServerOverhead:  10,
		ExchangeTimeout: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	env := newMockEnv(t, 6)
	return s, env
}

// startRoundWithReporters drives OPP to the state where both reporters have
// received and retrained the global model, returning their IDs.
func startRoundWithReporters(t *testing.T, s *Opportunistic, env *mockEnv) []sim.AgentID {
	t.Helper()
	if err := s.Start(env); err != nil {
		t.Fatal(err)
	}
	globals := env.sendsWith(tagGlobal)
	if len(globals) != 2 {
		t.Fatalf("sent %d globals, want 2 reporters", len(globals))
	}
	var reporters []sim.AgentID
	for _, g := range globals {
		reporters = append(reporters, g.msg.To)
		env.deliver(s, g)
	}
	for i, r := range reporters {
		env.finishTraining(s, r, uint64(10+i))
	}
	return reporters
}

func TestOppConfigValidate(t *testing.T) {
	if err := DefaultOppConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []OppConfig{
		{Reporters: 5, RoundDuration: 200, ExchangeTimeout: 60},
		{Rounds: 75, RoundDuration: 200, ExchangeTimeout: 60},
		{Rounds: 75, Reporters: 5, ExchangeTimeout: 60},
		{Rounds: 75, Reporters: 5, RoundDuration: 200},
		{Rounds: 75, Reporters: 5, RoundDuration: 200, ExchangeTimeout: 60, ServerOverhead: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
	if _, err := NewOpportunistic(OppConfig{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestOppEncounterTriggersOffer(t *testing.T) {
	s, env := newOppUnderTest(t)
	reporters := startRoundWithReporters(t, s, env)
	r := reporters[0]
	peer := pickNonReporter(env, reporters)

	s.OnEncounter(env, r, peer)
	offers := env.sendsWith(tagOffer)
	if len(offers) != 1 {
		t.Fatalf("%d offers after encounter, want 1", len(offers))
	}
	if offers[0].msg.From != r || offers[0].msg.To != peer {
		t.Fatalf("offer %v -> %v, want %v -> %v", offers[0].msg.From, offers[0].msg.To, r, peer)
	}
	if offers[0].payload.Model == nil {
		t.Fatal("offer carries no model")
	}
}

func TestOppFullExchangeAggregatesPeerModel(t *testing.T) {
	s, env := newOppUnderTest(t)
	reporters := startRoundWithReporters(t, s, env)
	r := reporters[0]
	peer := pickNonReporter(env, reporters)

	s.OnEncounter(env, r, peer)
	offer := env.sendsWith(tagOffer)[0]
	env.deliver(s, offer)
	if got := env.trainingAgents(); len(got) != 1 || got[0] != peer {
		t.Fatalf("training agents after offer = %v, want [%v]", got, peer)
	}
	env.finishTraining(s, peer, 77)
	retrained := env.sendsWith(tagRetrained)
	if len(retrained) != 1 {
		t.Fatalf("%d retrained messages, want 1", len(retrained))
	}
	if retrained[0].msg.To != r {
		t.Fatalf("retrained sent to %v, want reporter %v", retrained[0].msg.To, r)
	}
	if retrained[0].payload.DataAmount != 80 {
		t.Fatalf("retrained data amount = %v", retrained[0].payload.DataAmount)
	}
	env.deliver(s, retrained[0])

	// The reporter's aggregate now carries both data amounts.
	st := s.collectors[r]
	if st.exchanges != 1 {
		t.Fatalf("exchanges = %d, want 1", st.exchanges)
	}
	if st.weight != 160 {
		t.Fatalf("aggregate weight = %v, want 160 (own 80 + peer 80)", st.weight)
	}

	// Round end: the update must carry contributions = 2.
	env.advance(200)
	updates := env.sendsWith(tagUpdate)
	if len(updates) != 2 {
		t.Fatalf("%d updates, want 2 reporters", len(updates))
	}
	for _, u := range updates {
		want := 1
		if u.msg.From == r {
			want = 2
		}
		if u.payload.Contributions != want {
			t.Fatalf("update from %v has contributions %d, want %d", u.msg.From, u.payload.Contributions, want)
		}
	}
	ex := env.rec.Series(metrics.SeriesRoundExchanges)
	if last, _ := ex.Last(); last.Value != 1 {
		t.Fatalf("round exchanges = %v, want 1", last.Value)
	}
}

func TestOppReportersDoNotPairWithEachOther(t *testing.T) {
	s, env := newOppUnderTest(t)
	reporters := startRoundWithReporters(t, s, env)
	s.OnEncounter(env, reporters[0], reporters[1])
	if got := env.sendsWith(tagOffer); len(got) != 0 {
		t.Fatalf("reporters offered to each other: %d offers", len(got))
	}
}

func TestOppContactsEachPeerOncePerRound(t *testing.T) {
	s, env := newOppUnderTest(t)
	reporters := startRoundWithReporters(t, s, env)
	r := reporters[0]
	peer := pickNonReporter(env, reporters)

	s.OnEncounter(env, r, peer)
	offer := env.sendsWith(tagOffer)[0]
	env.deliver(s, offer)
	env.finishTraining(s, peer, 5)
	env.deliver(s, env.sendsWith(tagRetrained)[0])

	// Second encounter with the same peer in the same round: no new offer.
	s.OnEncounter(env, r, peer)
	if got := env.sendsWith(tagOffer); len(got) != 0 {
		t.Fatalf("peer re-contacted in the same round: %d offers", len(got))
	}
}

func TestOppBusyPeerDeclines(t *testing.T) {
	s, env := newOppUnderTest(t)
	reporters := startRoundWithReporters(t, s, env)
	r := reporters[0]
	peer := pickNonReporter(env, reporters)

	// The peer is idle when the offer is sent, but busy by the time it
	// arrives (e.g. another reporter got there first).
	s.OnEncounter(env, r, peer)
	offer := env.sendsWith(tagOffer)[0]
	env.busy[peer] = true
	env.deliver(s, offer)
	declines := env.sendsWith(tagDecline)
	if len(declines) != 1 {
		t.Fatalf("%d declines, want 1", len(declines))
	}
	env.deliver(s, declines[0])
	// The reporter's exchange slot must be free again.
	if s.collectors[r].pendingPeer != sim.NoAgent {
		t.Fatal("decline did not free the reporter's exchange slot")
	}
}

func TestOppOnlyOneOutstandingExchangePerReporter(t *testing.T) {
	s, env := newOppUnderTest(t)
	reporters := startRoundWithReporters(t, s, env)
	r := reporters[0]
	var peers []sim.AgentID
	for _, v := range env.vehicles {
		if v != reporters[0] && v != reporters[1] {
			peers = append(peers, v)
		}
	}
	s.OnEncounter(env, r, peers[0])
	s.OnEncounter(env, r, peers[1])
	if got := env.sendsWith(tagOffer); len(got) != 1 {
		t.Fatalf("%d concurrent offers from one reporter, want 1", len(got))
	}
}

func TestOppExchangeTimeoutFreesSlot(t *testing.T) {
	s, env := newOppUnderTest(t)
	reporters := startRoundWithReporters(t, s, env)
	r := reporters[0]
	peer := pickNonReporter(env, reporters)

	s.OnEncounter(env, r, peer)
	if s.collectors[r].pendingPeer != peer {
		t.Fatal("exchange slot not claimed")
	}
	// Peer never answers; the timeout must clear the slot.
	env.advance(env.now.Add(61))
	if s.collectors[r].pendingPeer != sim.NoAgent {
		t.Fatal("exchange slot still held after timeout")
	}
}

func TestOppPeerOutOfRangeDiscardsModel(t *testing.T) {
	s, env := newOppUnderTest(t)
	reporters := startRoundWithReporters(t, s, env)
	r := reporters[0]
	peer := pickNonReporter(env, reporters)

	s.OnEncounter(env, r, peer)
	env.deliver(s, env.sendsWith(tagOffer)[0])
	// The reporter drives away before the peer finishes: the V2X send of
	// the retrained model fails at call time.
	env.sendFail[r] = errors.New("out of range")
	env.finishTraining(s, peer, 9)
	if got := env.rec.Counter(metrics.CounterDiscardedModels); got != 1 {
		t.Fatalf("discarded = %v, want 1 (paper: 'Else, discard w')", got)
	}
	if s.collectors[r].exchanges != 0 {
		t.Fatal("failed exchange counted")
	}
}

func TestOppReporterOffAtRoundEndLosesCollected(t *testing.T) {
	s, env := newOppUnderTest(t)
	reporters := startRoundWithReporters(t, s, env)
	r := reporters[0]
	peer := pickNonReporter(env, reporters)

	s.OnEncounter(env, r, peer)
	env.deliver(s, env.sendsWith(tagOffer)[0])
	env.finishTraining(s, peer, 3)
	env.deliver(s, env.sendsWith(tagRetrained)[0])

	// The reporter turns off before the round ends.
	env.on[r] = false
	env.advance(200)
	updates := env.sendsWith(tagUpdate)
	if len(updates) != 1 {
		t.Fatalf("%d updates, want 1 (only the surviving reporter)", len(updates))
	}
	if updates[0].msg.From == r {
		t.Fatal("powered-off reporter still uploaded")
	}
	// Own model + collected peer model were both lost.
	if got := env.rec.Counter(metrics.CounterDiscardedModels); got != 2 {
		t.Fatalf("discarded = %v, want 2", got)
	}
}

func TestOppServerAggregatesByDataAmount(t *testing.T) {
	s, env := newOppUnderTest(t)
	reporters := startRoundWithReporters(t, s, env)
	before := env.models[env.server]
	env.advance(200)
	for _, u := range env.sendsWith(tagUpdate) {
		env.deliver(s, u)
	}
	if env.models[env.server] == before {
		t.Fatal("server model unchanged after round")
	}
	if got := env.rec.Counter(metrics.CounterRounds); got != 1 {
		t.Fatalf("rounds = %v", got)
	}
	contrib := env.rec.Series(metrics.SeriesRoundContributions)
	if last, _ := contrib.Last(); last.Value != 2 {
		t.Fatalf("contributions = %v, want 2 (both reporters, no peers)", last.Value)
	}
	_ = reporters
}

func TestOppStaleOfferDeclined(t *testing.T) {
	s, env := newOppUnderTest(t)
	reporters := startRoundWithReporters(t, s, env)
	r := reporters[0]
	peer := pickNonReporter(env, reporters)
	s.OnEncounter(env, r, peer)
	offer := env.sendsWith(tagOffer)[0]

	// Round ends before the offer lands.
	env.advance(200)
	env.deliver(s, offer)
	if got := env.trainingAgents(); len(got) != 0 {
		t.Fatalf("stale offer started training on %v", got)
	}
}

func TestOppTryExchangesScansNeighborsAfterRetrain(t *testing.T) {
	s, env := newOppUnderTest(t)
	if err := s.Start(env); err != nil {
		t.Fatal(err)
	}
	globals := env.sendsWith(tagGlobal)
	r := globals[0].msg.To
	// A peer is already in range while the reporter trains.
	peer := pickNonReporterFrom(env, globals)
	env.neighbor[r] = []sim.AgentID{peer}

	env.deliver(s, globals[0])
	env.finishTraining(s, r, 21)
	// Without a fresh OnEncounter, the reporter must still offer to the
	// neighbor discovered at retrain completion.
	offers := env.sendsWith(tagOffer)
	if len(offers) != 1 || offers[0].msg.To != peer {
		t.Fatalf("offers after retrain = %v, want one to %v", offers, peer)
	}
}

func TestOppName(t *testing.T) {
	s, _ := newOppUnderTest(t)
	if s.Name() != "opportunistic" {
		t.Fatalf("Name = %q", s.Name())
	}
	if s.Config().Reporters != 2 {
		t.Fatal("Config roundtrip broken")
	}
}

func pickNonReporter(env *mockEnv, reporters []sim.AgentID) sim.AgentID {
	isReporter := map[sim.AgentID]bool{}
	for _, r := range reporters {
		isReporter[r] = true
	}
	for _, v := range env.vehicles {
		if !isReporter[v] {
			return v
		}
	}
	return sim.NoAgent
}

func pickNonReporterFrom(env *mockEnv, globals []*sentMessage) sim.AgentID {
	var reporters []sim.AgentID
	for _, g := range globals {
		reporters = append(reporters, g.msg.To)
	}
	return pickNonReporter(env, reporters)
}

func TestOppProvenanceIncludesPeers(t *testing.T) {
	s, env := newOppUnderTest(t)
	reporters := startRoundWithReporters(t, s, env)
	r := reporters[0]
	peer := pickNonReporter(env, reporters)

	s.OnEncounter(env, r, peer)
	env.deliver(s, env.sendsWith(tagOffer)[0])
	env.finishTraining(s, peer, 71)
	env.deliver(s, env.sendsWith(tagRetrained)[0])
	env.advance(200)
	for _, u := range env.sendsWith(tagUpdate) {
		if u.msg.From == r {
			if len(u.payload.Provenance) != 2 {
				t.Fatalf("reporter provenance = %v, want reporter + peer", u.payload.Provenance)
			}
		}
		env.deliver(s, u)
	}
	prov := env.rec.Series(metrics.SeriesDistinctContributors)
	if prov == nil {
		t.Fatal("no provenance series")
	}
	if last, _ := prov.Last(); last.Value != 3 {
		t.Fatalf("distinct contributors = %v, want 3 (2 reporters + 1 peer)", last.Value)
	}
}
