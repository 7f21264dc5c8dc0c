package ml

import "math"

// gemm.go holds the float32 matrix kernels behind the convolution and
// dense layers, shaped for the small, skinny matrices the paper CNN
// produces (m and k of a few dozen at most). They are scalar Go, except
// that on amd64 the bulk of the conv forward's gemmNN runs on an SSE
// kernel (gemm_amd64.s). gemmNN, gemmNTChain and gemmNT are 2×4 register
// tiles: eight independent accumulator chains in flight hide the float add
// latency, and C is read and written once per tile rather than once per
// product. gemmTN is a 4-row broadcast (saxpy) kernel that streams B rows
// through contiguous C rows. Larger register tiles were measured slower
// here — gc spills them at these shapes. Row slices are hoisted so the
// compiler can elide bounds checks on the hot loops.
//
// Every kernel accumulates each output element over k in ascending order
// with a fixed loop nest, so results are bit-identical across runs, hosts,
// and worker counts — the (config, seed) → byte-identical-result contract
// does not tolerate reassociation that varies between executions.
//
// The forward kernels, gemmNN and gemmNTChain, go further: each output
// element is one chain that starts from C's prior value (the bias the
// layer pre-filled) and adds its k products one at a time, in ascending
// order — the float sequence of the one-example loop
// `y := b; for p { y += w[p]*x[p] }`. No product is summed into a partial
// first, so an element's bits depend on its own operands only: not on the
// tile, the loop order, or where in a batch its example sits. That is why
// a layer may stack a batch of examples along N (conv) or M (dense) and
// still produce the bits that one-example passes produce. (One caveat
// holds for the one-example code as much: when two NaNs of different
// payloads meet, the survivor depends on the operand order the compiler
// picked. Training only ever creates the hardware's one default NaN.)
//
// The conv backward pass multiplies by an upstream gradient that ReLU and
// max-pool have mostly zeroed, so gemmNTSparse and gemmTNSparse take that
// operand as its nonzero entries (sparseRows) and skip the rest. They are
// bit-identical to gemmNT and gemmTN when the dense operand is finite:
// every accumulator they share with the dense kernels starts at +0 (the
// `var s float32` of gemmNT, the zeroed dcol under gemmTN), under
// round-to-nearest a sum is −0 only if both addends are, so no accumulator
// is ever −0, and adding a ±0 product to one changes no bit. The surviving
// products are added in the same ascending order. A non-finite dense
// operand breaks the argument (0·Inf = NaN must appear), so callers test
// allFinite first and fall back to the dense kernels, which stay as that
// fallback and as the test oracle.

// gemmNN computes C += A·B for row-major matrices: A is M×K, B is K×N and
// C is M×N, one chain per element (see the header). Callers that need
// C = A·B pre-fill C; the conv forward fills it with the bias. Where the
// platform has one, a vector kernel (gemmNNVec) takes rows in pairs and
// columns in eights, each lane one element's chain with the same multiply
// and add the scalar code performs — IEEE-754 single precision lane by
// lane, with no fused multiply-add — and gemmNNBlock computes the rest.
func gemmNN(m, n, k int, a, b, c []float32) {
	mv, nv := gemmNNVec(m, n, k, a, b, c)
	gemmNNBlock(0, mv, nv, n, k, a, b, c)
	gemmNNBlock(mv, m, 0, n, k, a, b, c)
}

// gemmNNBlock is gemmNN in portable Go over rows [i0, i1) and columns
// [j0, n) of C. Its 2×4 tiles walk N outermost, so the four B columns a
// tile reads stay in L1 while every row pair of A passes over them.
func gemmNNBlock(i0, i1, j0, n, k int, a, b, c []float32) {
	j := j0
	for ; j+4 <= n; j += 4 {
		i := i0
		for ; i+2 <= i1; i += 2 {
			a0 := a[i*k : i*k+k]
			a1 := a[(i+1)*k : (i+1)*k+k]
			a1 = a1[:len(a0)]
			c0 := c[i*n+j : i*n+j+4]
			c1 := c[(i+1)*n+j : (i+1)*n+j+4]
			s00, s01, s02, s03 := c0[0], c0[1], c0[2], c0[3]
			s10, s11, s12, s13 := c1[0], c1[1], c1[2], c1[3]
			off := j
			for p, v0 := range a0 {
				v1 := a1[p]
				bp := b[off : off+4 : off+4]
				s00 += v0 * bp[0]
				s01 += v0 * bp[1]
				s02 += v0 * bp[2]
				s03 += v0 * bp[3]
				s10 += v1 * bp[0]
				s11 += v1 * bp[1]
				s12 += v1 * bp[2]
				s13 += v1 * bp[3]
				off += n
			}
			c0[0], c0[1], c0[2], c0[3] = s00, s01, s02, s03
			c1[0], c1[1], c1[2], c1[3] = s10, s11, s12, s13
		}
		if i < i1 {
			arow := a[i*k : i*k+k]
			c0 := c[i*n+j : i*n+j+4]
			s0, s1, s2, s3 := c0[0], c0[1], c0[2], c0[3]
			off := j
			for _, v := range arow {
				bp := b[off : off+4 : off+4]
				s0 += v * bp[0]
				s1 += v * bp[1]
				s2 += v * bp[2]
				s3 += v * bp[3]
				off += n
			}
			c0[0], c0[1], c0[2], c0[3] = s0, s1, s2, s3
		}
	}
	// Remainder columns (a one-example conv2 of the paper CNN has N=25),
	// four rows at a time for four chains in flight.
	for ; j < n; j++ {
		i := i0
		for ; i+4 <= i1; i += 4 {
			a0 := a[i*k : i*k+k]
			a1 := a[(i+1)*k : (i+1)*k+k]
			a2 := a[(i+2)*k : (i+2)*k+k]
			a3 := a[(i+3)*k : (i+3)*k+k]
			a1, a2, a3 = a1[:len(a0)], a2[:len(a0)], a3[:len(a0)]
			s0, s1, s2, s3 := c[i*n+j], c[(i+1)*n+j], c[(i+2)*n+j], c[(i+3)*n+j]
			off := j
			for p, v0 := range a0 {
				bv := b[off]
				s0 += v0 * bv
				s1 += a1[p] * bv
				s2 += a2[p] * bv
				s3 += a3[p] * bv
				off += n
			}
			c[i*n+j], c[(i+1)*n+j], c[(i+2)*n+j], c[(i+3)*n+j] = s0, s1, s2, s3
		}
		for ; i < i1; i++ {
			s := c[i*n+j]
			off := j
			for _, v := range a[i*k : i*k+k] {
				s += v * b[off]
				off += n
			}
			c[i*n+j] = s
		}
	}
}

// gemmNTChain computes C += A·Bᵀ where A is M×K, B is N×K and C is M×N,
// all row-major, one chain per element (see the header) — where gemmNT
// sums each dot product into a fresh accumulator and adds that to C once.
// It is the dense forward: A holds a batch of inputs one example per row,
// B the weights one output per row, and C arrives holding the bias, so
// each output is b + w₀x₀ + w₁x₁ + … added in the one-example loop's order
// (products written w·x, as there).
func gemmNTChain(m, n, k int, a, b, c []float32) {
	i := 0
	for ; i+2 <= m; i += 2 {
		a0 := a[i*k : i*k+k]
		a1 := a[(i+1)*k : (i+1)*k+k]
		a1 = a1[:len(a0)]
		c0 := c[i*n : i*n+n]
		c1 := c[(i+1)*n : (i+1)*n+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[(j+0)*k : (j+1)*k]
			b1 := b[(j+1)*k : (j+2)*k]
			b2 := b[(j+2)*k : (j+3)*k]
			b3 := b[(j+3)*k : (j+4)*k]
			b0, b1, b2, b3 = b0[:len(a0)], b1[:len(a0)], b2[:len(a0)], b3[:len(a0)]
			s00, s01, s02, s03 := c0[j], c0[j+1], c0[j+2], c0[j+3]
			s10, s11, s12, s13 := c1[j], c1[j+1], c1[j+2], c1[j+3]
			for p, x0 := range a0 {
				x1 := a1[p]
				w0, w1, w2, w3 := b0[p], b1[p], b2[p], b3[p]
				s00 += w0 * x0
				s01 += w1 * x0
				s02 += w2 * x0
				s03 += w3 * x0
				s10 += w0 * x1
				s11 += w1 * x1
				s12 += w2 * x1
				s13 += w3 * x1
			}
			c0[j], c0[j+1], c0[j+2], c0[j+3] = s00, s01, s02, s03
			c1[j], c1[j+1], c1[j+2], c1[j+3] = s10, s11, s12, s13
		}
		for ; j < n; j++ {
			brow := b[j*k : j*k+k]
			brow = brow[:len(a0)]
			s0, s1 := c0[j], c1[j]
			for p, x0 := range a0 {
				s0 += brow[p] * x0
				s1 += brow[p] * a1[p]
			}
			c0[j], c1[j] = s0, s1
		}
	}
	for ; i < m; i++ {
		arow := a[i*k : i*k+k]
		crow := c[i*n : i*n+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[(j+0)*k : (j+1)*k]
			b1 := b[(j+1)*k : (j+2)*k]
			b2 := b[(j+2)*k : (j+3)*k]
			b3 := b[(j+3)*k : (j+4)*k]
			b0, b1, b2, b3 = b0[:len(arow)], b1[:len(arow)], b2[:len(arow)], b3[:len(arow)]
			s0, s1, s2, s3 := crow[j], crow[j+1], crow[j+2], crow[j+3]
			for p, x := range arow {
				s0 += b0[p] * x
				s1 += b1[p] * x
				s2 += b2[p] * x
				s3 += b3[p] * x
			}
			crow[j], crow[j+1], crow[j+2], crow[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			brow := b[j*k : j*k+k]
			brow = brow[:len(arow)]
			s := crow[j]
			for p, x := range arow {
				s += brow[p] * x
			}
			crow[j] = s
		}
	}
}

// gemmTN computes C += Aᵀ·B where A is K×M (so Aᵀ is M×K), B is K×N and C
// is M×N, all row-major. Each step p broadcasts four contiguous A values
// a[p*m+i..i+3] against the same B row — a blocked rank-1 update.
func gemmTN(m, n, k int, a, b, c []float32) {
	for p := 0; p < k; p++ {
		arow := a[p*m : p*m+m]
		brow := b[p*n : p*n+n]
		i := 0
		for ; i+4 <= m; i += 4 {
			v0, v1, v2, v3 := arow[i], arow[i+1], arow[i+2], arow[i+3]
			c0 := c[(i+0)*n : (i+1)*n]
			c1 := c[(i+1)*n : (i+2)*n]
			c2 := c[(i+2)*n : (i+3)*n]
			c3 := c[(i+3)*n : (i+4)*n]
			for j, bv := range brow {
				c0[j] += v0 * bv
				c1[j] += v1 * bv
				c2[j] += v2 * bv
				c3[j] += v3 * bv
			}
		}
		for ; i+2 <= m; i += 2 {
			v0, v1 := arow[i], arow[i+1]
			c0 := c[(i+0)*n : (i+1)*n]
			c1 := c[(i+1)*n : (i+2)*n]
			for j, bv := range brow {
				c0[j] += v0 * bv
				c1[j] += v1 * bv
			}
		}
		for ; i < m; i++ {
			v := arow[i]
			crow := c[i*n : i*n+n]
			for j, bv := range brow {
				crow[j] += v * bv
			}
		}
	}
}

// gemmNT computes C += A·Bᵀ where A is M×K, B is N×K with its rows ldb
// apart (ldb = K when B is packed) and C is M×N, all row-major. Each C
// element is an ascending-k dot product of a row of A with a row of B;
// the 2×4 tile keeps eight independent accumulator chains in flight to
// hide the float add latency.
func gemmNT(m, n, k, ldb int, a, b, c []float32) {
	i := 0
	for ; i+2 <= m; i += 2 {
		a0 := a[(i+0)*k : (i+1)*k]
		a1 := a[(i+1)*k : (i+2)*k]
		c0 := c[(i+0)*n : (i+1)*n]
		c1 := c[(i+1)*n : (i+2)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[(j+0)*ldb : (j+0)*ldb+k]
			b1 := b[(j+1)*ldb : (j+1)*ldb+k]
			b2 := b[(j+2)*ldb : (j+2)*ldb+k]
			b3 := b[(j+3)*ldb : (j+3)*ldb+k]
			var s00, s01, s02, s03, s10, s11, s12, s13 float32
			for p, av0 := range a0 {
				av1 := a1[p]
				bv0, bv1, bv2, bv3 := b0[p], b1[p], b2[p], b3[p]
				s00 += av0 * bv0
				s01 += av0 * bv1
				s02 += av0 * bv2
				s03 += av0 * bv3
				s10 += av1 * bv0
				s11 += av1 * bv1
				s12 += av1 * bv2
				s13 += av1 * bv3
			}
			c0[j] += s00
			c0[j+1] += s01
			c0[j+2] += s02
			c0[j+3] += s03
			c1[j] += s10
			c1[j+1] += s11
			c1[j+2] += s12
			c1[j+3] += s13
		}
		for ; j < n; j++ {
			brow := b[j*ldb : j*ldb+k]
			var s0, s1 float32
			for p, bv := range brow {
				s0 += a0[p] * bv
				s1 += a1[p] * bv
			}
			c0[j] += s0
			c1[j] += s1
		}
	}
	for ; i < m; i++ {
		arow := a[i*k : i*k+k]
		crow := c[i*n : i*n+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[(j+0)*ldb : (j+0)*ldb+k]
			b1 := b[(j+1)*ldb : (j+1)*ldb+k]
			b2 := b[(j+2)*ldb : (j+2)*ldb+k]
			b3 := b[(j+3)*ldb : (j+3)*ldb+k]
			var s0, s1, s2, s3 float32
			for p, av := range arow {
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			crow[j] += s0
			crow[j+1] += s1
			crow[j+2] += s2
			crow[j+3] += s3
		}
		for ; j < n; j++ {
			brow := b[j*ldb : j*ldb+k]
			var s float32
			for p, av := range arow {
				s += av * brow[p]
			}
			crow[j] += s
		}
	}
}

// im2col unrolls a channel-major (inC, inH, inW) activation into the
// (inC·k·k) × (outH·outW) patch matrix for a stride-1 valid convolution,
// its rows ld apart: row (ic·k+ky)·k+kx holds, for every output position,
// the input value the kernel tap (ic, ky, kx) reads. Each row is
// outW-long contiguous copies, so the unroll is pure memmove traffic. A
// batch unrolls example e into col[e·outH·outW:] with ld = nb·outH·outW,
// side by side along the rows.
func im2col(x []float32, inC, inH, inW, k, outH, outW, ld int, col []float32) {
	outN := outH * outW
	ck := 0
	for ic := 0; ic < inC; ic++ {
		plane := x[ic*inH*inW : (ic+1)*inH*inW]
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				row := col[ck*ld : ck*ld+outN]
				for oy := 0; oy < outH; oy++ {
					src := plane[(oy+ky)*inW+kx : (oy+ky)*inW+kx+outW]
					copy(row[oy*outW:(oy+1)*outW], src)
				}
				ck++
			}
		}
	}
}

// col2im scatters the patch-matrix gradient back onto the (inC, inH, inW)
// input gradient, accumulating overlapping taps. dx must be pre-zeroed.
// Rows are visited in ascending ck order so the accumulation order into
// each dx element is fixed.
func col2im(dcol []float32, inC, inH, inW, k, outH, outW int, dx []float32) {
	outN := outH * outW
	ck := 0
	for ic := 0; ic < inC; ic++ {
		plane := dx[ic*inH*inW : (ic+1)*inH*inW]
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				row := dcol[ck*outN : (ck+1)*outN]
				for oy := 0; oy < outH; oy++ {
					dst := plane[(oy+ky)*inW+kx : (oy+ky)*inW+kx+outW]
					src := row[oy*outW : (oy+1)*outW]
					for j, v := range src {
						dst[j] += v
					}
				}
				ck++
			}
		}
	}
}

// sparseRows holds a row-major matrix as its nonzero entries: row r's
// column indices are idx[off[r]:off[r+1]], ascending, with values in the
// parallel val. The buffers are reused across compress calls.
type sparseRows struct {
	off []int
	idx []int
	val []float32
}

// compress loads the m×n row-major matrix a, dropping every ±0 entry. NaN
// is kept. The loop is branchless — each entry is written and the cursor
// advances only past a nonzero — because which positions a max-pool routes
// gradient to is data-dependent, and a compare-and-branch mispredicts.
func (s *sparseRows) compress(m, n int, a []float32) {
	if len(s.idx) < m*n {
		s.idx = make([]int, m*n)
		s.val = make([]float32, m*n)
	}
	idx, val := s.idx, s.val
	s.off = append(s.off[:0], 0)
	t := 0
	for r := 0; r < m; r++ {
		for j, v := range a[r*n : r*n+n] {
			idx[t], val[t] = j, v
			b := math.Float32bits(v) << 1 // drop the sign: ±0 → 0
			t += int((b | (0 - b)) >> 31)
		}
		s.off = append(s.off, t)
	}
}

// allFinite reports whether s holds no Inf or NaN. It tests the exponent
// bits directly (all ones is Inf or NaN): math.IsInf plus a NaN compare
// cost a measurable share of the training hot path.
func allFinite(s []float32) bool {
	for _, v := range s {
		if math.Float32bits(v)&0x7f800000 == 0x7f800000 {
			return false
		}
	}
	return true
}

// gemmNTSparse is gemmNT with A given as sparseRows (M×K, M = len(a.off)-1):
// C += A·Bᵀ with B N×K, rows ldb apart, and C M×N, row-major. Each C
// element is the same ascending-k dot product as gemmNT's, over A's
// nonzero entries only; four B rows share one pass over the entry list.
func gemmNTSparse(n, k, ldb int, a *sparseRows, b, c []float32) {
	for i := 0; i+1 < len(a.off); i++ {
		idx := a.idx[a.off[i]:a.off[i+1]]
		val := a.val[a.off[i]:a.off[i+1]]
		val = val[:len(idx)]
		crow := c[i*n : i*n+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[(j+0)*ldb : (j+0)*ldb+k]
			b1 := b[(j+1)*ldb : (j+1)*ldb+k]
			b2 := b[(j+2)*ldb : (j+2)*ldb+k]
			b3 := b[(j+3)*ldb : (j+3)*ldb+k]
			var s0, s1, s2, s3 float32
			for t, p := range idx {
				av := val[t]
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			crow[j] += s0
			crow[j+1] += s1
			crow[j+2] += s2
			crow[j+3] += s3
		}
		for ; j < n; j++ {
			brow := b[j*ldb : j*ldb+k]
			var s float32
			for t, p := range idx {
				s += val[t] * brow[p]
			}
			crow[j] += s
		}
	}
}

// gemmTNSparse is gemmTN with B given as sparseRows (K×N, K = len(b.off)-1):
// C += Aᵀ·B with A K×M and C M×N, row-major. Like gemmTN it walks p in
// ascending order as the outermost loop, so every C element receives its
// products in the same order; only the columns of B's nonzero entries are
// touched.
func gemmTNSparse(m, n int, a []float32, b *sparseRows, c []float32) {
	for p := 0; p+1 < len(b.off); p++ {
		idx := b.idx[b.off[p]:b.off[p+1]]
		val := b.val[b.off[p]:b.off[p+1]]
		val = val[:len(idx)]
		arow := a[p*m : p*m+m]
		i := 0
		for ; i+4 <= m; i += 4 {
			v0, v1, v2, v3 := arow[i], arow[i+1], arow[i+2], arow[i+3]
			c0 := c[(i+0)*n : (i+1)*n]
			c1 := c[(i+1)*n : (i+2)*n]
			c2 := c[(i+2)*n : (i+3)*n]
			c3 := c[(i+3)*n : (i+4)*n]
			for t, j := range idx {
				bv := val[t]
				c0[j] += v0 * bv
				c1[j] += v1 * bv
				c2[j] += v2 * bv
				c3[j] += v3 * bv
			}
		}
		for ; i < m; i++ {
			v := arow[i]
			crow := c[i*n : i*n+n]
			for t, j := range idx {
				crow[j] += v * val[t]
			}
		}
	}
}
