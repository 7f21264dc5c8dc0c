//go:build !amd64

package ml

// gemmNNVec computes nothing without the amd64 kernel: gemmNNBlock takes
// the whole of gemmNN.
func gemmNNVec(m, n, k int, a, b, c []float32) (mv, nv int) { return 0, 0 }
