package ml

// gemmNN2x8 is gemmNN's SSE kernel (gemm_amd64.s): rows a0 and a1 of A,
// each k long, against the first n8 columns of B (rows ldb apart),
// accumulated into the rows c0 and c1 of C, eight columns at a time. SSE2
// is part of every amd64 CPU, so no feature test guards it.
//
//go:noescape
func gemmNN2x8(k, n8 int, a0, a1, b, c0, c1 *float32, ldb int)

// gemmNNVec runs gemmNN2x8 over rows in pairs and columns in eights and
// returns the block of C it computed: rows [0, mv) × columns [0, nv).
func gemmNNVec(m, n, k int, a, b, c []float32) (mv, nv int) {
	mv, nv = m&^1, n&^7
	if mv == 0 || nv == 0 || k == 0 {
		return 0, 0
	}
	// The kernel reads a[:mv·k], b[:(k−1)·n+nv] and writes c[:mv·n]; check
	// once here what it then indexes unchecked.
	_, _, _ = a[mv*k-1], b[(k-1)*n+nv-1], c[mv*n-1]
	for i := 0; i < mv; i += 2 {
		gemmNN2x8(k, nv, &a[i*k], &a[(i+1)*k], &b[0], &c[i*n], &c[(i+1)*n], n)
	}
	return mv, nv
}
