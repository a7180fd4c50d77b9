package nn

import "context"

// ContextForwarder is implemented by containers whose forward pass can be
// interrupted between sub-layers. Primitive layers stay oblivious to
// contexts: one convolution is the cancellation granularity, which keeps
// the hot loops branch-free while still bounding the latency of a cancelled
// request to a single layer's work.
type ContextForwarder interface {
	ForwardCtx(ctx context.Context, x *Tensor, train bool) (*Tensor, error)
}

// ForwardCtx runs a forward pass through l, honoring ctx between the layers
// of any container along the way. It returns ctx's error as soon as the
// context is done; the partially-computed activations are discarded.
func ForwardCtx(ctx context.Context, l Layer, x *Tensor, train bool) (*Tensor, error) {
	if cf, ok := l.(ContextForwarder); ok {
		return cf.ForwardCtx(ctx, x, train)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return l.Forward(x, train), nil
}

// ForwardCtx implements ContextForwarder: the context is checked before
// every layer in the chain. On inference passes with an arena attached,
// each intermediate is recycled as soon as the next layer has consumed it,
// so a steady-state forward allocates nothing; on cancellation the last
// intermediate is simply left to the garbage collector.
func (s *Sequential) ForwardCtx(ctx context.Context, x *Tensor, train bool) (*Tensor, error) {
	in := x
	for _, l := range s.Layers {
		next, err := ForwardCtx(ctx, l, x, train)
		if err != nil {
			return nil, err
		}
		s.recycle(x, in, next, train)
		x = next
	}
	return x, nil
}

// ForwardCtx implements ContextForwarder: each branch runs through the
// ctx-aware path (so a branch that is itself a container cancels
// mid-branch), and the outputs are concatenated along channels. Branches
// run one after another on the calling goroutine, like every inference op:
// serving's only concurrency is the Engine's worker pool.
func (p *ParallelConcat) ForwardCtx(ctx context.Context, x *Tensor, train bool) (*Tensor, error) {
	if len(p.Branches) == 0 {
		panic("nn: ParallelConcat with no branches")
	}
	outs := make([]*Tensor, len(p.Branches))
	for i, b := range p.Branches {
		var err error
		if outs[i], err = ForwardCtx(ctx, b, x, train); err != nil {
			return nil, err
		}
	}
	return p.concat(outs, x, train), nil
}
