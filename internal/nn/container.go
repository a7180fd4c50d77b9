package nn

import (
	"context"
	"fmt"
)

// Sequential chains layers, feeding each output into the next.
type Sequential struct {
	Layers []Layer

	sc *Scratch
}

// NewSequential builds a sequential container.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Forward runs every layer in order: ForwardCtx under a context that is
// never done.
func (s *Sequential) Forward(x *Tensor, train bool) *Tensor {
	out, _ := s.ForwardCtx(context.Background(), x, train)
	return out
}

// recycle returns a consumed intermediate to the arena — never the chain
// input (the caller owns it), never the tensor just produced, and never on
// training passes, where Backward still needs the cached intermediates.
func (s *Sequential) recycle(t, in, next *Tensor, train bool) {
	if s.sc == nil || train || t == in || t == next {
		return
	}
	s.sc.Put(t)
}

// Backward runs every layer's backward pass in reverse order.
func (s *Sequential) Backward(dout *Tensor) *Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dout = s.Layers[i].Backward(dout)
	}
	return dout
}

// Params aggregates all nested parameters in layer order.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Walk visits every nested primitive layer.
func (s *Sequential) Walk(v Visitor) {
	for _, l := range s.Layers {
		Walk(l, v)
	}
}

// ParallelConcat feeds the same input to every branch and concatenates the
// branch outputs along the channel dimension. Branches must preserve spatial
// size. This is the multi-scale fan-out of the paper's MSDnet: each branch
// is a dilated convolution stack at a different dilation rate.
type ParallelConcat struct {
	Branches []Layer

	branchC []int // channel count per branch, recorded at forward
	sc      *Scratch
}

// NewParallelConcat builds a parallel-concat container.
func NewParallelConcat(branches ...Layer) *ParallelConcat {
	return &ParallelConcat{Branches: branches}
}

// Forward evaluates all branches on x and concatenates channels:
// ForwardCtx under a context that is never done.
func (p *ParallelConcat) Forward(x *Tensor, train bool) *Tensor {
	out, _ := p.ForwardCtx(context.Background(), x, train)
	return out
}

// concat merges branch outputs along the channel dimension, recording the
// per-branch channel counts for Backward. Consumed branch outputs are
// recycled into the arena on inference passes (never the shared input x).
// Sample batches (Tensor.Dims5) concatenate like 4-D tensors whose
// channel plane is H·W·S values.
func (p *ParallelConcat) concat(outs []*Tensor, x *Tensor, train bool) *Tensor {
	n, _, h, w, s := outs[0].Dims5()
	p.branchC = p.branchC[:0]
	totalC := 0
	for i, o := range outs {
		on, oc, ohh, oww, os := o.Dims5()
		if on != n || ohh != h || oww != w || os != s {
			panic(fmt.Sprintf("nn: branch %d output %v mismatches %v", i, o.Shape, outs[0].Shape))
		}
		p.branchC = append(p.branchC, oc)
		totalC += oc
	}
	out := allocLike(p.sc, train, outs[0], totalC, h, w)
	plane := h * w * s
	cOff := 0
	for _, o := range outs {
		oc := o.Shape[1]
		for bi := 0; bi < n; bi++ {
			src := o.Data[bi*oc*plane : (bi+1)*oc*plane]
			dst := out.Data[(bi*totalC+cOff)*plane : (bi*totalC+cOff+oc)*plane]
			copy(dst, src)
		}
		cOff += oc
		if p.sc != nil && !train && o != x {
			p.sc.Put(o)
		}
	}
	return out
}

// Backward splits the gradient back per branch and sums input gradients.
func (p *ParallelConcat) Backward(dout *Tensor) *Tensor {
	n, totalC, h, w := dout.Dims4()
	var dx *Tensor
	cOff := 0
	for i, b := range p.Branches {
		oc := p.branchC[i]
		dslice := NewTensor(n, oc, h, w)
		for bi := 0; bi < n; bi++ {
			src := dout.Data[(bi*totalC+cOff)*h*w : (bi*totalC+cOff+oc)*h*w]
			dst := dslice.Data[bi*oc*h*w : (bi+1)*oc*h*w]
			copy(dst, src)
		}
		dbx := b.Backward(dslice)
		if dx == nil {
			dx = dbx
		} else {
			dx.AddScaled(dbx, 1)
		}
		cOff += oc
	}
	return dx
}

// Params aggregates all branch parameters.
func (p *ParallelConcat) Params() []*Param {
	var ps []*Param
	for _, b := range p.Branches {
		ps = append(ps, b.Params()...)
	}
	return ps
}

// Walk visits every nested primitive layer.
func (p *ParallelConcat) Walk(v Visitor) {
	for _, b := range p.Branches {
		Walk(b, v)
	}
}

// SplitAtFirstDropout splits a Sequential into a deterministic prefix (all
// layers strictly before the first one containing a Dropout) and the
// remaining stochastic suffix. This is the Monte-Carlo fast path: the
// Bayesian monitor computes the prefix once per verdict and runs only the
// suffix over its sample batch (Replicate), which for the MSDnet stack
// removes (Samples-1) stem evaluations without changing a single output
// bit: running prefix then suffix is the same layer sequence as l.
//
// Invariants the caller must hold:
//   - prefix and suffix alias l's layer instances (weights, caches, dropout
//     RNGs and decision records are shared — frozen clones stay frozen,
//     SetDropoutMode and ReseedDropout on l are seen by the split). Do not
//     run l and the split concurrently; they are the same single-goroutine
//     replica.
//   - the prefix is only reusable across samples because every non-Dropout
//     layer in this package is deterministic at inference; a hypothetical
//     stochastic layer other than Dropout would break the split.
//
// ok is false — and suffix is l itself — when l is not a Sequential, when
// no layer contains a Dropout, or when the first layer already does (an
// empty prefix buys nothing).
func SplitAtFirstDropout(l Layer) (prefix, suffix Layer, ok bool) {
	s, isSeq := l.(*Sequential)
	if !isSeq {
		return nil, l, false
	}
	split := -1
	for i, sub := range s.Layers {
		if containsDropout(sub) {
			split = i
			break
		}
	}
	if split <= 0 {
		return nil, l, false
	}
	return &Sequential{Layers: s.Layers[:split:split], sc: s.sc},
		&Sequential{Layers: s.Layers[split:], sc: s.sc}, true
}

// SplitTrailingUpsample splits a Sequential that ends in an Upsample2x into
// the layers before it and the upsample itself, so a caller can work on the
// head's output before upsampling it: the Bayesian monitor applies its
// softmax there. body aliases l's layers and keeps its arena, like
// SplitAtFirstDropout's halves.
//
// ok is false — and body is l itself — when l is not a Sequential, does not
// end in an Upsample2x, or has no layer before it.
func SplitTrailingUpsample(l Layer) (body Layer, up *Upsample2x, ok bool) {
	s, isSeq := l.(*Sequential)
	if !isSeq || len(s.Layers) < 2 {
		return l, nil, false
	}
	last := len(s.Layers) - 1
	if up, ok = s.Layers[last].(*Upsample2x); !ok {
		return l, nil, false
	}
	return &Sequential{Layers: s.Layers[:last:last], sc: s.sc}, up, true
}

// containsDropout reports whether any primitive layer reachable from l is a
// Dropout.
func containsDropout(l Layer) bool {
	found := false
	Walk(l, func(p Layer) {
		if _, ok := p.(*Dropout); ok {
			found = true
		}
	})
	return found
}

// SetDropoutMode sets the mode of every Dropout layer reachable from l.
// Switching to AlwaysOn converts a trained network into its Monte-Carlo
// Bayesian variant.
func SetDropoutMode(l Layer, mode DropoutMode) {
	Walk(l, func(prim Layer) {
		if d, ok := prim.(*Dropout); ok {
			d.Mode = mode
		}
	})
}

// ReseedDropout reseeds every Dropout layer reachable from l with
// deterministic per-layer offsets, making an MC sample sequence reproducible.
// Reseeding with the seed of the previous call rewinds each layer's
// decision record (see Dropout) instead of redrawing the same stream.
func ReseedDropout(l Layer, seed int64) {
	i := int64(0)
	Walk(l, func(prim Layer) {
		if d, ok := prim.(*Dropout); ok {
			d.Reseed(seed + i*7919)
			i++
		}
	})
}
