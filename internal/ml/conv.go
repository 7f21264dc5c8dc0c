package ml

import "math"

// conv2d is a 2-D convolution with stride 1 and valid padding, operating on
// channel-major (C, H, W) activations. Weights are stored flat as
// [outC][inC][k][k]; biases per output channel.
//
// Forward and backward run as im2col + GEMM (gemm.go): the batch is
// unrolled once into the layer-owned col buffer, its examples side by side
// along the columns, so the forward pass is one (outC × ck)·(ck × nb·outN)
// matrix product for the whole batch, regrouped example by example. The
// backward pass runs per example, reading that example's columns of col in
// place: two products (dW = dY·colᵀ, dcol = Wᵀ·dY) plus a col2im scatter.
// The scratch buffers grow to the largest batch seen and are reused, so a
// training step allocates nothing.
//
// In the paper CNN, dY arrives through ReLU and a 2×2 max-pool, which
// routes gradient to at most one position in four, so the backward
// products run over dY's nonzero entries only (gemmNTSparse,
// gemmTNSparse). Dropping a ±0 product is exact while x and w are finite —
// the argument is in gemm.go's header — so a non-finite x or w takes the
// dense kernels, where 0·Inf still yields its NaN. Either way the bits
// equal the dense path's.
type conv2d struct {
	inC, inH, inW int
	outC, k       int
	outH, outW    int

	w, b   []float32
	db, dw []float32

	// The last forward's batch: its input, and its im2col unroll col,
	// (inC·k·k) × (nb·outH·outW) with rows ld = nb·outH·outW apart and
	// example e in columns [e·outH·outW, (e+1)·outH·outW). wFinite is
	// allFinite(w) at that forward; weights do not change before the
	// batch's backward passes.
	x       []float32
	col     []float32
	ld      int
	wFinite bool

	yt   []float32  // forward product, outC × ld
	y    []float32  // yt regrouped example by example
	dx   []float32  // one example's input gradient
	dcol []float32  // one example's gradient of col: (inC·k·k) × (outH·outW)
	dy   sparseRows // dY's nonzero entries, sized by the first backward
}

func newConv2D(inC, inH, inW, outC, k int) *conv2d {
	outH, outW := inH-k+1, inW-k+1
	return &conv2d{
		inC: inC, inH: inH, inW: inW,
		outC: outC, k: k,
		outH: outH, outW: outW,
		w:    make([]float32, outC*inC*k*k),
		b:    make([]float32, outC),
		dw:   make([]float32, outC*inC*k*k),
		db:   make([]float32, outC),
		dx:   make([]float32, inC*inH*inW),
		dcol: make([]float32, inC*k*k*outH*outW),
	}
}

func (c *conv2d) forward(x []float32, nb int) []float32 {
	inN := c.inC * c.inH * c.inW
	outN := c.outH * c.outW
	ck := c.inC * c.k * c.k
	c.x = x[:nb*inN]
	c.ld = nb * outN
	c.wFinite = allFinite(c.w)
	c.col = fit(c.col, ck*c.ld)
	for e := 0; e < nb; e++ {
		im2col(c.x[e*inN:(e+1)*inN], c.inC, c.inH, c.inW, c.k, c.outH, c.outW, c.ld, c.col[e*outN:])
	}
	c.yt = fit(c.yt, c.outC*c.ld)
	for oc := 0; oc < c.outC; oc++ {
		bias := c.b[oc]
		row := c.yt[oc*c.ld : (oc+1)*c.ld]
		for j := range row {
			row[j] = bias
		}
	}
	gemmNN(c.outC, c.ld, ck, c.w, c.col, c.yt)
	c.y = fit(c.y, nb*c.outC*outN)
	for e := 0; e < nb; e++ {
		for oc := 0; oc < c.outC; oc++ {
			copy(c.y[(e*c.outC+oc)*outN:(e*c.outC+oc+1)*outN], c.yt[oc*c.ld+e*outN:oc*c.ld+(e+1)*outN])
		}
	}
	return c.y
}

func (c *conv2d) backward(e int, dout []float32, needDx bool) []float32 {
	inN := c.inC * c.inH * c.inW
	outN := c.outH * c.outW
	ck := c.inC * c.k * c.k
	col := c.col[e*outN:]
	// Bias gradient: per-channel row sums of dY.
	for oc := 0; oc < c.outC; oc++ {
		var db float32
		for _, g := range dout[oc*outN : (oc+1)*outN] {
			db += g
		}
		c.db[oc] += db
	}
	// Weight gradient: dW += dY · colᵀ (col still holds this forward's
	// unrolled input, so x stands in for it in the finite test).
	sparse := c.wFinite && allFinite(c.x[e*inN:(e+1)*inN])
	if sparse {
		c.dy.compress(c.outC, outN, dout)
		gemmNTSparse(ck, outN, c.ld, &c.dy, col, c.dw)
	} else {
		gemmNT(c.outC, ck, outN, c.ld, dout, col, c.dw)
	}
	if !needDx {
		return nil
	}
	// Input gradient: dcol = Wᵀ · dY, scattered back by col2im.
	zero(c.dcol)
	if sparse {
		gemmTNSparse(ck, outN, c.w, &c.dy, c.dcol)
	} else {
		gemmTN(ck, outN, c.outC, c.w, dout, c.dcol)
	}
	zero(c.dx)
	col2im(c.dcol, c.inC, c.inH, c.inW, c.k, c.outH, c.outW, c.dx)
	return c.dx
}

func (c *conv2d) params() [][]float32 { return [][]float32{c.w, c.b} }
func (c *conv2d) grads() [][]float32  { return [][]float32{c.dw, c.db} }

func (c *conv2d) zeroGrads() {
	zero(c.dw)
	zero(c.db)
}

// referenceConvForward is the scalar convolution kernel the GEMM path
// replaced, retained (BruteForcePairs-style) as the reference
// implementation the equivalence tests compare against. Each output is the
// bias plus its taps' products added in (ic, ky, kx) order — the chain the
// GEMM forward runs — so the batched forward must match it bit for bit. It
// returns a fresh output slice.
func referenceConvForward(w, b, x []float32, inC, inH, inW, outC, k int) []float32 {
	outH, outW := inH-k+1, inW-k+1
	y := make([]float32, outC*outH*outW)
	for oc := 0; oc < outC; oc++ {
		outPlane := y[oc*outH*outW : (oc+1)*outH*outW]
		for i := range outPlane {
			outPlane[i] = b[oc]
		}
		for ic := 0; ic < inC; ic++ {
			inPlane := x[ic*inH*inW : (ic+1)*inH*inW]
			wBase := ((oc*inC + ic) * k) * k
			for ky := 0; ky < k; ky++ {
				wRow := w[wBase+ky*k : wBase+ky*k+k]
				for oy := 0; oy < outH; oy++ {
					inRow := inPlane[(oy+ky)*inW:]
					outRow := outPlane[oy*outW : (oy+1)*outW]
					for kx := 0; kx < k; kx++ {
						wv := wRow[kx]
						in := inRow[kx:]
						for ox := range outRow {
							outRow[ox] += wv * in[ox]
						}
					}
				}
			}
		}
	}
	return y
}

// referenceConvBackward is the scalar backward kernel retained as the
// reference for the GEMM equivalence tests. It returns fresh dx, dw, db
// slices for the given upstream gradient.
func referenceConvBackward(w, x, dout []float32, inC, inH, inW, outC, k int) (dx, dw, db []float32) {
	outH, outW := inH-k+1, inW-k+1
	dx = make([]float32, inC*inH*inW)
	dw = make([]float32, outC*inC*k*k)
	db = make([]float32, outC)
	for oc := 0; oc < outC; oc++ {
		outPlane := dout[oc*outH*outW : (oc+1)*outH*outW]
		for _, g := range outPlane {
			db[oc] += g
		}
		for ic := 0; ic < inC; ic++ {
			inPlane := x[ic*inH*inW : (ic+1)*inH*inW]
			dxPlane := dx[ic*inH*inW : (ic+1)*inH*inW]
			wBase := ((oc*inC + ic) * k) * k
			for ky := 0; ky < k; ky++ {
				wRow := w[wBase+ky*k : wBase+ky*k+k]
				dwRow := dw[wBase+ky*k : wBase+ky*k+k]
				for oy := 0; oy < outH; oy++ {
					gRow := outPlane[oy*outW : (oy+1)*outW]
					inRow := inPlane[(oy+ky)*inW:]
					dxRow := dxPlane[(oy+ky)*inW:]
					for kx := 0; kx < k; kx++ {
						var acc float32
						wv := wRow[kx]
						in := inRow[kx:]
						dxs := dxRow[kx:]
						for ox, g := range gRow {
							acc += g * in[ox]
							dxs[ox] += wv * g
						}
						dwRow[kx] += acc
					}
				}
			}
		}
	}
	return dx, dw, db
}

// maxpool2 is a 2x2 max-pool with stride 2 over channel-major activations.
// Odd trailing rows/columns are dropped (floor semantics), matching the
// PyTorch default the paper's prototype relied on.
type maxpool2 struct {
	c, inH, inW int
	outH, outW  int
	y           []float32
	dx          []float32 // one example's input gradient
	argmax      []int     // per output, the flat index of its max within its example's input
}

func newMaxPool2(cIn, inH, inW int) *maxpool2 {
	outH, outW := inH/2, inW/2
	return &maxpool2{
		c: cIn, inH: inH, inW: inW,
		outH: outH, outW: outW,
		dx: make([]float32, cIn*inH*inW),
	}
}

// forward takes the window max and its first index under float `>`. The
// branchless bit-pattern pass (poolBits) computes exactly that whenever no
// input has its sign bit set or is NaN — always, behind a ReLU, unless a
// NaN arrives. Otherwise the compare-and-branch pass (poolCompare) redoes
// the batch; it is also the oracle the bit-identity tests hold poolBits to.
func (m *maxpool2) forward(x []float32, nb int) []float32 {
	outN := m.c * m.outH * m.outW
	x = x[:nb*m.c*m.inH*m.inW]
	m.y = fit(m.y, nb*outN)
	m.argmax = fit(m.argmax, nb*outN)
	if !m.poolBits(x, nb) {
		m.poolCompare(x, nb)
	}
	return m.y
}

// posInfBits is the bit pattern of +Inf: among floats with the sign bit
// clear, exactly the NaNs lie above it.
const posInfBits = 0x7f800000

// poolBits pools by comparing bit patterns as integers, with no
// data-dependent branch: which of four activations wins is a coin toss to
// the branch predictor, so compare-and-branch mispredicts constantly. For
// floats whose sign bit is clear and which are not NaN, float order is the
// unsigned order of the bit patterns, and equal floats have equal
// patterns, so a subtract-and-mask select (maxBits) finds the same max and
// the same first index as `>`. It reports false if any input had its sign
// bit set (−0 included) or any window's max lies above +Inf's pattern (a
// NaN); y and argmax then hold garbage for the caller to overwrite.
func (m *maxpool2) poolBits(x []float32, nb int) bool {
	inN, outN := m.c*m.inH*m.inW, m.c*m.outH*m.outW
	inW := m.inW
	var bad uint32 // top bit set once an input leaves the domain above
	for e := 0; e < nb; e++ {
		xe := x[e*inN : (e+1)*inN]
		ye := m.y[e*outN : (e+1)*outN]
		ae := m.argmax[e*outN : (e+1)*outN]
		o := 0
		for ch := 0; ch < m.c; ch++ {
			for oy := 0; oy < m.outH; oy++ {
				i0 := ch*m.inH*inW + 2*oy*inW
				for ox := 0; ox < m.outW; ox++ {
					w := xe[i0 : i0+inW+2 : i0+inW+2]
					u0, u1 := math.Float32bits(w[0]), math.Float32bits(w[1])
					u2, u3 := math.Float32bits(w[inW]), math.Float32bits(w[inW+1])
					best, bi := maxBits(u0, i0, u1, i0+1)
					best, bi = maxBits(best, bi, u2, i0+inW)
					best, bi = maxBits(best, bi, u3, i0+inW+1)
					ye[o] = math.Float32frombits(best)
					ae[o] = bi
					bad |= u0 | u1 | u2 | u3 | (posInfBits - best)
					o++
					i0 += 2
				}
			}
		}
	}
	return bad>>31 == 0
}

// maxBits returns (u, i) if u > best and (best, bi) otherwise, without a
// branch. Both patterns must lie below 2^31 so that their difference, read
// as an int32, is negative exactly when u is the larger.
func maxBits(best uint32, bi int, u uint32, i int) (uint32, int) {
	g := uint32(int32(best-u) >> 31) // all ones iff u > best
	return best ^ (best^u)&g, bi ^ (bi^i)&int(int32(g))
}

// poolCompare is the compare-and-branch pass: exact for every input,
// NaN and signed zeros included, since it applies float `>` itself.
func (m *maxpool2) poolCompare(x []float32, nb int) {
	inN, outN := m.c*m.inH*m.inW, m.c*m.outH*m.outW
	for e := 0; e < nb; e++ {
		xe := x[e*inN : (e+1)*inN]
		ye := m.y[e*outN : (e+1)*outN]
		ae := m.argmax[e*outN : (e+1)*outN]
		for ch := 0; ch < m.c; ch++ {
			inBase := ch * m.inH * m.inW
			outBase := ch * m.outH * m.outW
			for oy := 0; oy < m.outH; oy++ {
				for ox := 0; ox < m.outW; ox++ {
					i0 := inBase + (2*oy)*m.inW + 2*ox
					i1 := i0 + 1
					i2 := i0 + m.inW
					i3 := i2 + 1
					best, bi := xe[i0], i0
					if xe[i1] > best {
						best, bi = xe[i1], i1
					}
					if xe[i2] > best {
						best, bi = xe[i2], i2
					}
					if xe[i3] > best {
						best, bi = xe[i3], i3
					}
					o := outBase + oy*m.outW + ox
					ye[o] = best
					ae[o] = bi
				}
			}
		}
	}
}

func (m *maxpool2) backward(e int, dout []float32, needDx bool) []float32 {
	if !needDx {
		return nil
	}
	outN := m.c * m.outH * m.outW
	zero(m.dx)
	for o, idx := range m.argmax[e*outN : (e+1)*outN] {
		m.dx[idx] += dout[o]
	}
	return m.dx
}

func (m *maxpool2) params() [][]float32 { return nil }
func (m *maxpool2) grads() [][]float32  { return nil }
func (m *maxpool2) zeroGrads()          {}
