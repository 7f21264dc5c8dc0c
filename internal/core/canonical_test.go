package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"roadrunner/internal/comm"
	"roadrunner/internal/metrics"
)

func sampleResult(t *testing.T, wall time.Duration, counterOrder []string) *Result {
	t.Helper()
	rec := metrics.NewRecorder()
	if err := rec.Record(metrics.SeriesAccuracy, 10, 0.25); err != nil {
		t.Fatal(err)
	}
	if err := rec.Record(metrics.SeriesAccuracy, 20, 0.5); err != nil {
		t.Fatal(err)
	}
	for _, name := range counterOrder {
		rec.Add(name, 3)
	}
	return &Result{
		Metrics:         rec,
		Comm:            map[string]comm.Stats{"v2x": {MessagesSent: 7}, "v2c": {BytesDelivered: 9}},
		End:             20,
		Wall:            wall,
		FinalAccuracy:   0.5,
		EventsProcessed: 42,
	}
}

func TestCanonicalExcludesWall(t *testing.T) {
	order := []string{metrics.CounterRounds, metrics.CounterV2CBytes}
	a, err := sampleResult(t, time.Second, order).CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sampleResult(t, 3*time.Minute, order).CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("wall time leaked into canonical bytes:\n%s\nvs\n%s", a, b)
	}
}

func TestCanonicalSortsCountersAndComm(t *testing.T) {
	a, err := sampleResult(t, 0, []string{"b_counter", "a_counter"}).CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sampleResult(t, 0, []string{"a_counter", "b_counter"}).CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("counter touch order leaked into canonical bytes:\n%s\nvs\n%s", a, b)
	}
	text := string(a)
	if strings.Index(text, "counter a_counter") > strings.Index(text, "counter b_counter") {
		t.Fatalf("counters not sorted:\n%s", text)
	}
	if strings.Index(text, "comm v2c") > strings.Index(text, "comm v2x") {
		t.Fatalf("comm channels not sorted:\n%s", text)
	}
}

func TestCanonicalConfigJSONNormalizesInvariantFields(t *testing.T) {
	a := SmallConfig()
	b := SmallConfig()
	b.Trace = true
	b.ChannelRecord = true
	b.LogWriter = &bytes.Buffer{}
	aj, err := CanonicalConfigJSON(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := CanonicalConfigJSON(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatalf("result-invariant fields leaked into canonical config:\n%s\nvs\n%s", aj, bj)
	}

	c := SmallConfig()
	c.Seed = a.Seed + 1
	cj, err := CanonicalConfigJSON(c)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(aj, cj) {
		t.Fatal("distinct seeds encoded identically")
	}
}

func TestCanonicalReflectsPayload(t *testing.T) {
	a, err := sampleResult(t, 0, []string{"n"}).CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	other := sampleResult(t, 0, []string{"n"})
	other.Metrics.Add("n", 1)
	b, err := other.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Fatal("distinct counter values serialized identically")
	}
}
