package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"roadrunner/internal/ml"
)

// Hooks for the external tests in world_test.go, which live outside the
// package so they can drive the slot through the conformance matrix.

// UpdateGolden mirrors the -update flag.
func UpdateGolden() bool { return *updateGolden }

// ResetWorldSlot empties the world slot, so the next New builds its world.
func ResetWorldSlot() {
	worldSlot.mu.Lock()
	worldSlot.w = nil
	worldSlot.mu.Unlock()
}

// WriteTraces writes a trace set to a CSV file in the test's temp dir.
var WriteTraces = writeTraces

// WorldRetainedFor reports whether the slot holds the world of cfg.
func WorldRetainedFor(cfg Config) bool {
	worldSlot.mu.Lock()
	defer worldSlot.mu.Unlock()
	return worldSlot.w != nil && worldSlot.key == worldKeyOf(cfg)
}

// RetainedWorldChecksum hashes every trace sample, partition example and
// test example of the retained world — drawing every vehicle's data — and
// ok is false when the slot is empty.
func RetainedWorldChecksum() (sum string, ok bool) {
	worldSlot.mu.Lock()
	w := worldSlot.w
	worldSlot.mu.Unlock()
	if w == nil {
		return "", false
	}
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	examples := func(exs []ml.Example) {
		u64(uint64(len(exs)))
		for _, ex := range exs {
			u64(uint64(ex.Label))
			u64(uint64(len(ex.X)))
			for _, v := range ex.X {
				binary.LittleEndian.PutUint32(buf[:4], math.Float32bits(v))
				h.Write(buf[:4])
			}
		}
	}
	ts := w.replayer.TraceSet()
	u64(math.Float64bits(float64(ts.Horizon)))
	for _, tr := range ts.Traces {
		u64(uint64(tr.Vehicle))
		u64(uint64(len(tr.Samples)))
		for _, s := range tr.Samples {
			u64(math.Float64bits(float64(s.T)))
			u64(math.Float64bits(s.Pos.X))
			u64(math.Float64bits(s.Pos.Y))
			if s.On {
				u64(1)
			} else {
				u64(0)
			}
		}
	}
	for i := range w.parts {
		examples(w.part(i))
	}
	examples(w.testSet)
	return hex.EncodeToString(h.Sum(nil)), true
}

// DrawnVehicles lists the vehicles (trace indices) whose data the world of
// exp has drawn so far.
func DrawnVehicles(exp *Experiment) []int {
	var drawn []int
	for i := range exp.world.parts {
		if exp.world.parts[i].examples != nil {
			drawn = append(drawn, i)
		}
	}
	return drawn
}
