// Package fixture exercises floatorder negatives: deterministic
// reductions must lint clean.
package fixture

import "sort"

// sumSlice accumulates over a slice: iteration order is the index order.
func sumSlice(values []float64) float64 {
	total := 0.0
	for _, v := range values {
		total += v
	}
	return total
}

// sumSortedKeys is the sanctioned map reduction: sort the keys, then fold
// in sorted order.
func sumSortedKeys(weights map[string]float64) float64 {
	keys := make([]string, 0, len(weights))
	for k := range weights {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	total := 0.0
	for _, k := range keys {
		total += weights[k]
	}
	return total
}

// countMap accumulates integers in map order: associative and
// commutative, explicitly sanctioned.
func countMap(weights map[string]float64) int {
	n := 0
	for range weights {
		n++
	}
	return n
}

// indexedPartials is the sanctioned pattern: workers fill disjoint slots,
// the fold runs in ascending index order after the loop.
func indexedPartials(partials []float64) float64 {
	total := 0.0
	for i := 0; i < len(partials); i++ {
		total += partials[i]
	}
	return total
}

// localAccum accumulates into a variable scoped inside the loop body:
// per-iteration state, no cross-iteration order dependence.
func localAccum(weights map[string][]float64) map[string]float64 {
	out := make(map[string]float64, len(weights))
	for k, vs := range weights {
		sub := 0.0
		for _, v := range vs {
			sub += v
		}
		out[k] = sub
	}
	return out
}
