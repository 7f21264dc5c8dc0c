package ml

import (
	"bytes"
	"testing"

	"roadrunner/internal/sim"
)

// paperCNN is the evaluation architecture at the repository's default
// scale (the compute-scaled CIFAR-10 stand-in).
func paperCNN() Spec { return CNNSpec(16, 16, 3, 6, 12, 3, 32, 16, 10) }

func benchExamples(b *testing.B, spec Spec, n int) []Example {
	b.Helper()
	rng := sim.NewRNG(7)
	out, err := spec.OutputDim()
	if err != nil {
		b.Fatal(err)
	}
	examples := make([]Example, n)
	for i := range examples {
		x := make([]float32, spec.InputDim())
		for j := range x {
			x[j] = float32(rng.NormFloat64())
		}
		examples[i] = Example{X: x, Label: i % out}
	}
	return examples
}

// BenchmarkTrainVehicleRetrainCNN measures one paper-style vehicle retrain:
// 80 samples x 2 epochs of momentum-SGD on the evaluation CNN. This is the
// dominant host-compute cost of an experiment.
func BenchmarkTrainVehicleRetrainCNN(b *testing.B) {
	spec := paperCNN()
	examples := benchExamples(b, spec, 80)
	cfg := DefaultTrainConfig()
	net, err := NewNetwork(spec, sim.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Train(examples, cfg, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainVehicleRetrainMLP is the laptop-scale counterpart.
func BenchmarkTrainVehicleRetrainMLP(b *testing.B) {
	spec := MLPSpec(36, []int{24}, 6)
	examples := benchExamples(b, spec, 30)
	cfg := DefaultTrainConfig()
	net, err := NewNetwork(spec, sim.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Train(examples, cfg, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForwardCNN measures inference (the per-round accuracy
// evaluation's unit of work).
func BenchmarkForwardCNN(b *testing.B) {
	spec := paperCNN()
	net, err := NewNetwork(spec, sim.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	x := benchExamples(b, spec, 1)[0].X
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Forward(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateCNN measures one accuracy evaluation of the paper CNN
// on the Figure-4 test set size (500 examples).
func BenchmarkEvaluateCNN(b *testing.B) {
	spec := paperCNN()
	net, err := NewNetwork(spec, sim.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	examples := benchExamples(b, spec, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := net.Evaluate(examples); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFedAvg15 measures one OPP-scale aggregation (≈15 contributions).
func BenchmarkFedAvg15(b *testing.B) {
	spec := paperCNN()
	models := make([]*Snapshot, 15)
	weights := make([]float64, 15)
	for i := range models {
		n, err := NewNetwork(spec, sim.NewRNG(uint64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		models[i] = n.Snapshot()
		weights[i] = 80
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FedAvg(models, weights); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotEncode measures model serialization (wire format).
func BenchmarkSnapshotEncode(b *testing.B) {
	n, err := NewNetwork(paperCNN(), sim.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	snap := n.Snapshot()
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := snap.Encode(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(snap.WireBytes()))
}

// BenchmarkSnapshotDecode measures model deserialization.
func BenchmarkSnapshotDecode(b *testing.B) {
	n, err := NewNetwork(paperCNN(), sim.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	snap := n.Snapshot()
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeSnapshot(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(raw)))
}
