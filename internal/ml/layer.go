package ml

import "math"

// layer is one differentiable stage of a network. The forward pass runs
// over a batch of nb examples stored back to back (example e's activation
// is x[e·size:(e+1)·size]), and every output element is computed by the
// same float32 operations in the same order whatever nb is, so one pass
// over a batch gives the bits of nb one-example passes (gemm.go header).
// The backward pass runs one example at a time against the caches the
// last forward left, accumulating parameter gradients: summing a
// mini-batch's gradients in one product would regroup float additions.
// Forward caches whatever backward needs, so a layer instance serves one
// batch at a time; a Network is used by one goroutine at a time, so this
// needs no locking.
type layer interface {
	// forward computes the outputs of the nb examples in x, back to back.
	// The returned slice is owned by the layer and valid until the next
	// forward call.
	forward(x []float32, nb int) []float32
	// backward consumes the gradient w.r.t. example e's output of the last
	// forward, accumulates parameter gradients, and returns the gradient
	// w.r.t. that example's input. The returned slice is owned by the
	// layer. With needDx false the caller reads no input gradient (the
	// network's first layer): the layer skips computing it and returns nil;
	// parameter gradients are the same bits either way.
	backward(e int, dout []float32, needDx bool) []float32
	// params returns the trainable parameter slices (empty for stateless
	// layers). The slices are live views; mutating them updates the layer.
	params() [][]float32
	// grads returns the accumulated gradient slices, parallel to params.
	grads() [][]float32
	// zeroGrads clears the accumulated gradients.
	zeroGrads()
}

// fit returns s with length n, reusing its array when it is large enough.
// Contents are not kept: every caller overwrites all n elements.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// dense is a fully connected layer: y = Wx + b, with W stored row-major
// [out][in].
type dense struct {
	in, out int
	w, b    []float32
	dw, db  []float32

	x  []float32 // cached input batch
	y  []float32
	dx []float32
}

func newDense(in, out int) *dense {
	return &dense{
		in: in, out: out,
		w:  make([]float32, in*out),
		b:  make([]float32, out),
		dw: make([]float32, in*out),
		db: make([]float32, out),
		dx: make([]float32, in),
	}
}

// forward fills every output with its bias and lets gemmNTChain add the
// example's products to it one at a time, in input order.
func (d *dense) forward(x []float32, nb int) []float32 {
	d.x = x[:nb*d.in]
	d.y = fit(d.y, nb*d.out)
	for e := 0; e < nb; e++ {
		copy(d.y[e*d.out:(e+1)*d.out], d.b)
	}
	gemmNTChain(nb, d.out, d.in, d.x, d.w, d.y)
	return d.y
}

// backward skips output rows whose upstream gradient is ±0. That drops
// only ±0 products, which change no bit of an accumulator that is never
// −0 (zeroGrads and the dx reset start every one at +0, and under
// round-to-nearest a sum is −0 only if both addends are) — provided x and
// w are finite. A 0·Inf or 0·NaN product would be NaN and this skip drops
// it, so with a non-finite x or w the layer differs from a dense product.
// conv2d's sparse backward (conv.go) rests on the same argument and
// guards that case.
func (d *dense) backward(e int, dout []float32, needDx bool) []float32 {
	x := d.x[e*d.in : (e+1)*d.in]
	if needDx {
		zero(d.dx)
	}
	for o := 0; o < d.out; o++ {
		g := dout[o]
		if g == 0 {
			continue
		}
		drow := d.dw[o*d.in : (o+1)*d.in]
		d.db[o] += g
		if !needDx {
			for i, xi := range x {
				drow[i] += g * xi
			}
			continue
		}
		row := d.w[o*d.in : (o+1)*d.in]
		for i, xi := range x {
			drow[i] += g * xi
			d.dx[i] += row[i] * g
		}
	}
	if !needDx {
		return nil
	}
	return d.dx
}

func (d *dense) params() [][]float32 { return [][]float32{d.w, d.b} }
func (d *dense) grads() [][]float32  { return [][]float32{d.dw, d.db} }

func (d *dense) zeroGrads() {
	zero(d.dw)
	zero(d.db)
}

// relu is the rectified-linear activation. Both passes are branchless: the
// forward pass derives a per-element keep/zero bitmask from the input's
// sign and magnitude bits (activation signs are data-dependent, so a
// compare-and-branch mispredicts constantly on the training hot path) and
// the backward pass reuses the stored mask, guaranteeing the two passes
// agree on the pass-through set.
type relu struct {
	size int
	y    []float32
	dx   []float32
	mask []uint32 // all-ones where the input was positive, else zero
}

func newReLU(size int) *relu {
	return &relu{size: size, dx: make([]float32, size)}
}

func (r *relu) forward(x []float32, nb int) []float32 {
	x = x[:nb*r.size]
	r.y = fit(r.y, len(x))
	r.mask = fit(r.mask, len(x))
	y, mask := r.y[:len(x)], r.mask[:len(x)]
	for i, v := range x {
		b := math.Float32bits(v)
		// Sign bit of (b | -b) is set iff b != 0; clearing elements whose
		// own sign bit is set then leaves exactly the positive inputs.
		m := uint32(int32(^b&(b|(0-b))) >> 31)
		y[i] = math.Float32frombits(b & m)
		mask[i] = m
	}
	return r.y
}

func (r *relu) backward(e int, dout []float32, needDx bool) []float32 {
	if !needDx {
		return nil
	}
	mask := r.mask[e*r.size : (e+1)*r.size]
	dx := r.dx[:len(mask)]
	for i, g := range dout[:len(mask)] {
		dx[i] = math.Float32frombits(math.Float32bits(g) & mask[i])
	}
	return r.dx
}

func (r *relu) params() [][]float32 { return nil }
func (r *relu) grads() [][]float32  { return nil }
func (r *relu) zeroGrads()          {}

func zero(s []float32) {
	for i := range s {
		s[i] = 0
	}
}
