package ml

import "math"

// layer is one differentiable stage of a network. Layers operate on single
// examples (flat float32 activations); batching is handled above them by
// accumulating gradients across a mini-batch before an optimizer step.
// Forward caches whatever backward needs, so a layer instance serves one
// example at a time — each simulated agent trains on its own Network clone,
// so this needs no locking.
type layer interface {
	// forward computes the layer output for input x. The returned slice is
	// owned by the layer and valid until the next forward call.
	forward(x []float32) []float32
	// backward consumes the gradient w.r.t. the layer output, accumulates
	// parameter gradients, and returns the gradient w.r.t. the input. The
	// returned slice is owned by the layer. With needDx false the caller
	// reads no input gradient (the network's first layer): the layer skips
	// computing it and returns nil; parameter gradients are the same bits
	// either way.
	backward(dout []float32, needDx bool) []float32
	// params returns the trainable parameter slices (empty for stateless
	// layers). The slices are live views; mutating them updates the layer.
	params() [][]float32
	// grads returns the accumulated gradient slices, parallel to params.
	grads() [][]float32
	// zeroGrads clears the accumulated gradients.
	zeroGrads()
}

// dense is a fully connected layer: y = Wx + b, with W stored row-major
// [out][in].
type dense struct {
	in, out int
	w, b    []float32
	dw, db  []float32

	x  []float32 // cached input
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
		y:  make([]float32, out),
		dx: make([]float32, in),
	}
}

func (d *dense) forward(x []float32) []float32 {
	d.x = x
	for o := 0; o < d.out; o++ {
		row := d.w[o*d.in : (o+1)*d.in]
		sum := d.b[o]
		for i, xi := range x {
			sum += row[i] * xi
		}
		d.y[o] = sum
	}
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
func (d *dense) backward(dout []float32, needDx bool) []float32 {
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
			for i, xi := range d.x {
				drow[i] += g * xi
			}
			continue
		}
		row := d.w[o*d.in : (o+1)*d.in]
		for i, xi := range d.x {
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
	y    []float32
	dx   []float32
	mask []uint32 // all-ones where the input was positive, else zero
}

func newReLU(size int) *relu {
	return &relu{
		y:    make([]float32, size),
		dx:   make([]float32, size),
		mask: make([]uint32, size),
	}
}

func (r *relu) forward(x []float32) []float32 {
	y := r.y
	mask := r.mask
	for i, v := range x {
		b := math.Float32bits(v)
		// Sign bit of (b | -b) is set iff b != 0; clearing elements whose
		// own sign bit is set then leaves exactly the positive inputs.
		m := uint32(int32(^b&(b|(0-b))) >> 31)
		y[i] = math.Float32frombits(b & m)
		mask[i] = m
	}
	return y
}

func (r *relu) backward(dout []float32, needDx bool) []float32 {
	if !needDx {
		return nil
	}
	dx := r.dx
	for i, g := range dout {
		dx[i] = math.Float32frombits(math.Float32bits(g) & r.mask[i])
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
