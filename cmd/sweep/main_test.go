package main

import (
	"math"
	"runtime"
	"testing"
)

func TestMeanStd(t *testing.T) {
	mean, std := meanStd([]float64{2, 4, 6})
	if mean != 4 {
		t.Fatalf("mean = %v", mean)
	}
	if math.Abs(std-math.Sqrt(8.0/3)) > 1e-12 {
		t.Fatalf("std = %v", std)
	}
	mean, std = meanStd(nil)
	if mean != 0 || std != 0 {
		t.Fatalf("empty meanStd = %v, %v", mean, std)
	}
}

func TestMinMaxOf(t *testing.T) {
	vals := []float64{3, -1, 7}
	if minOf(vals) != -1 {
		t.Fatalf("min = %v", minOf(vals))
	}
	if maxOf(vals) != 7 {
		t.Fatalf("max = %v", maxOf(vals))
	}
}

func TestEffectiveWorkers(t *testing.T) {
	// With no -workers the scheduler runs GOMAXPROCS workers, never more
	// than there are jobs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	if got := effectiveWorkers(0, 5); got != 2 {
		t.Fatalf("effectiveWorkers(0,5) at GOMAXPROCS 2 = %d", got)
	}
	if got := effectiveWorkers(0, 1); got != 1 {
		t.Fatalf("effectiveWorkers(0,1) = %d", got)
	}
	if got := effectiveWorkers(8, 3); got != 3 {
		t.Fatalf("effectiveWorkers(8,3) = %d", got)
	}
	if got := effectiveWorkers(2, 5); got != 2 {
		t.Fatalf("effectiveWorkers(2,5) = %d", got)
	}
}
