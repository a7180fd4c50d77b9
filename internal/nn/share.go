package nn

import (
	"fmt"
	"slices"
)

// ShareParams aliases dst's parameter tensors — and the running statistics
// of its batch-norm layers — onto src's, so the two networks read the same
// weight memory while keeping private per-layer forward caches (ReLU masks,
// dropout RNGs, batch-norm scratch). This is what makes a replica pool
// memory-cheap: N workers share one copy of the parameters instead of
// paying N× the model size.
//
// The resulting pair is only safe under a frozen-weights invariant: nothing
// may write to the shared tensors while either network is in use. Training
// (optimizer steps, batch-norm running-stat updates under train=true)
// violates it; inference — including Monte-Carlo dropout, whose
// stochasticity lives in the private dropout layers — does not.
//
// Both networks must have identical architecture: parameter count, order
// and shapes are verified, as is the batch-norm layer count.
func ShareParams(dst, src Layer) error {
	sp, dp := src.Params(), dst.Params()
	if len(sp) != len(dp) {
		return fmt.Errorf("nn: sharing params between networks with %d vs %d parameters", len(dp), len(sp))
	}
	for i := range dp {
		if !slices.Equal(dp[i].Value.Shape, sp[i].Value.Shape) {
			return fmt.Errorf("nn: parameter %q shape %v vs %q shape %v",
				dp[i].Name, dp[i].Value.Shape, sp[i].Name, sp[i].Value.Shape)
		}
		dp[i].Value = sp[i].Value
	}
	var sbn, dbn []*BatchNorm2D
	Walk(src, func(l Layer) {
		if bn, ok := l.(*BatchNorm2D); ok {
			sbn = append(sbn, bn)
		}
	})
	Walk(dst, func(l Layer) {
		if bn, ok := l.(*BatchNorm2D); ok {
			dbn = append(dbn, bn)
		}
	})
	if len(sbn) != len(dbn) {
		return fmt.Errorf("nn: sharing batch-norm stats between networks with %d vs %d layers", len(dbn), len(sbn))
	}
	for i := range dbn {
		if dbn[i].C != sbn[i].C {
			return fmt.Errorf("nn: batch-norm %d channels %d vs %d", i, dbn[i].C, sbn[i].C)
		}
		dbn[i].RunningMean = sbn[i].RunningMean
		dbn[i].RunningVar = sbn[i].RunningVar
	}
	return nil
}

// SharesParams reports whether a and b read the same parameter memory —
// the pointer-equality check behind the replica-pool memory guarantee.
func SharesParams(a, b Layer) bool {
	ap, bp := a.Params(), b.Params()
	if len(ap) != len(bp) || len(ap) == 0 {
		return false
	}
	for i := range ap {
		if ap[i].Value != bp[i].Value {
			return false
		}
	}
	return true
}
