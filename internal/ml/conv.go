package ml

// conv2d is a 2-D convolution with stride 1 and valid padding, operating on
// channel-major (C, H, W) activations. Weights are stored flat as
// [outC][inC][k][k]; biases per output channel.
//
// Forward and backward run as im2col + GEMM (gemm.go): the input is
// unrolled once into the layer-owned col buffer, the forward pass is one
// (outC × ck)·(ck × outN) matrix product, and the backward pass is two
// products (dW = dY·colᵀ, dcol = Wᵀ·dY) plus a col2im scatter. The scratch
// buffers are allocated once and reused across calls, so a training step
// allocates nothing.
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

	x    []float32
	y    []float32
	dx   []float32
	col  []float32  // im2col patch matrix: (inC·k·k) × (outH·outW)
	dcol []float32  // gradient of col, same shape
	dy   sparseRows // dY's nonzero entries, sized by the first backward
}

func newConv2D(inC, inH, inW, outC, k int) *conv2d {
	outH, outW := inH-k+1, inW-k+1
	ckn := inC * k * k * outH * outW
	return &conv2d{
		inC: inC, inH: inH, inW: inW,
		outC: outC, k: k,
		outH: outH, outW: outW,
		w:    make([]float32, outC*inC*k*k),
		b:    make([]float32, outC),
		dw:   make([]float32, outC*inC*k*k),
		db:   make([]float32, outC),
		y:    make([]float32, outC*outH*outW),
		dx:   make([]float32, inC*inH*inW),
		col:  make([]float32, ckn),
		dcol: make([]float32, ckn),
	}
}

func (c *conv2d) forward(x []float32) []float32 {
	c.x = x
	outN := c.outH * c.outW
	ck := c.inC * c.k * c.k
	im2col(x, c.inC, c.inH, c.inW, c.k, c.outH, c.outW, c.col)
	for oc := 0; oc < c.outC; oc++ {
		bias := c.b[oc]
		row := c.y[oc*outN : (oc+1)*outN]
		for j := range row {
			row[j] = bias
		}
	}
	gemmNN(c.outC, outN, ck, c.w, c.col, c.y)
	return c.y
}

func (c *conv2d) backward(dout []float32, needDx bool) []float32 {
	outN := c.outH * c.outW
	ck := c.inC * c.k * c.k
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
	sparse := allFinite(c.x) && allFinite(c.w)
	if sparse {
		c.dy.compress(c.outC, outN, dout)
		gemmNTSparse(ck, outN, &c.dy, c.col, c.dw)
	} else {
		gemmNT(c.outC, ck, outN, dout, c.col, c.dw)
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
// implementation the equivalence tests compare against. It returns a fresh
// output slice.
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
	dx          []float32
	argmax      []int // flat input index of each output's max
}

func newMaxPool2(cIn, inH, inW int) *maxpool2 {
	outH, outW := inH/2, inW/2
	return &maxpool2{
		c: cIn, inH: inH, inW: inW,
		outH: outH, outW: outW,
		y:      make([]float32, cIn*outH*outW),
		dx:     make([]float32, cIn*inH*inW),
		argmax: make([]int, cIn*outH*outW),
	}
}

func (m *maxpool2) forward(x []float32) []float32 {
	for ch := 0; ch < m.c; ch++ {
		inBase := ch * m.inH * m.inW
		outBase := ch * m.outH * m.outW
		for oy := 0; oy < m.outH; oy++ {
			for ox := 0; ox < m.outW; ox++ {
				i0 := inBase + (2*oy)*m.inW + 2*ox
				i1 := i0 + 1
				i2 := i0 + m.inW
				i3 := i2 + 1
				best, bi := x[i0], i0
				if x[i1] > best {
					best, bi = x[i1], i1
				}
				if x[i2] > best {
					best, bi = x[i2], i2
				}
				if x[i3] > best {
					best, bi = x[i3], i3
				}
				o := outBase + oy*m.outW + ox
				m.y[o] = best
				m.argmax[o] = bi
			}
		}
	}
	return m.y
}

func (m *maxpool2) backward(dout []float32, needDx bool) []float32 {
	if !needDx {
		return nil
	}
	zero(m.dx)
	for o, idx := range m.argmax {
		m.dx[idx] += dout[o]
	}
	return m.dx
}

func (m *maxpool2) params() [][]float32 { return nil }
func (m *maxpool2) grads() [][]float32  { return nil }
func (m *maxpool2) zeroGrads()          {}
