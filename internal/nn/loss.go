package nn

import (
	"fmt"
	"math"
)

// SoftmaxChannels applies a channel-wise softmax at every spatial location
// of a 4-D logits tensor, producing per-pixel class probabilities.
func SoftmaxChannels(logits *Tensor) *Tensor {
	out := logits.ZerosLike()
	softmaxChannelsInto(out, logits)
	return out
}

// SoftmaxChannelsInPlace overwrites a logits tensor with its channel-wise
// softmax and returns it. The values are bit-identical to SoftmaxChannels —
// each element of the column is read before it is written — but no output
// tensor is allocated, which is what keeps the Monte-Carlo monitor loop
// allocation-free: the network output buffer becomes the probability buffer
// and returns to the arena after accumulation.
func SoftmaxChannelsInPlace(logits *Tensor) *Tensor {
	softmaxChannelsInto(logits, logits)
	return logits
}

// softmaxChannelsInto computes the channel softmax of logits into out,
// which may alias logits: within one (bi, y, x) column every logit is read
// before its slot in out is written, and columns are independent.
func softmaxChannelsInto(out, logits *Tensor) {
	n, c, h, w := logits.Dims4()
	for job := 0; job < n*h; job++ {
		bi, y := job/h, job%h
		for x := 0; x < w; x++ {
			// max for numerical stability
			maxV := float32(math.Inf(-1))
			for ci := 0; ci < c; ci++ {
				v := logits.Data[((bi*c+ci)*h+y)*w+x]
				if v > maxV {
					maxV = v
				}
			}
			var sum float32
			for ci := 0; ci < c; ci++ {
				e := float32(math.Exp(float64(logits.Data[((bi*c+ci)*h+y)*w+x] - maxV)))
				out.Data[((bi*c+ci)*h+y)*w+x] = e
				sum += e
			}
			inv := 1 / sum
			for ci := 0; ci < c; ci++ {
				out.Data[((bi*c+ci)*h+y)*w+x] *= inv
			}
		}
	}
}

// ArgmaxChannels returns the per-pixel argmax class of a 4-D scores tensor
// as one int slice per batch element (row-major h*w).
func ArgmaxChannels(scores *Tensor) [][]int {
	n, c, h, w := scores.Dims4()
	out := make([][]int, n)
	for bi := 0; bi < n; bi++ {
		out[bi] = make([]int, h*w)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				best, bestV := 0, scores.At4(bi, 0, y, x)
				for ci := 1; ci < c; ci++ {
					if v := scores.At4(bi, ci, y, x); v > bestV {
						best, bestV = ci, v
					}
				}
				out[bi][y*w+x] = best
			}
		}
	}
	return out
}

// CrossEntropyLoss computes the mean per-pixel softmax cross entropy between
// logits [N,C,H,W] and integer targets [N][H*W], with optional per-class
// weights (nil = uniform). It returns the scalar loss and the gradient
// w.r.t. the logits, fused for numerical stability.
func CrossEntropyLoss(logits *Tensor, targets [][]int, classWeights []float32) (float64, *Tensor) {
	n, c, h, w := logits.Dims4()
	if len(targets) != n {
		panic(fmt.Sprintf("nn: %d targets for batch of %d", len(targets), n))
	}
	probs := SoftmaxChannels(logits)
	grad := logits.ZerosLike()

	var totalLoss float64
	var totalWeight float64
	// First pass: accumulate loss and total weight (serial: cheap).
	for bi := 0; bi < n; bi++ {
		if len(targets[bi]) != h*w {
			panic(fmt.Sprintf("nn: target %d has %d labels for %d pixels", bi, len(targets[bi]), h*w))
		}
		for i := 0; i < h*w; i++ {
			t := targets[bi][i]
			if t < 0 || t >= c {
				panic(fmt.Sprintf("nn: target class %d outside [0,%d)", t, c))
			}
			wgt := float64(1)
			if classWeights != nil {
				wgt = float64(classWeights[t])
			}
			y, x := i/w, i%w
			p := float64(probs.At4(bi, t, y, x))
			if p < 1e-12 {
				p = 1e-12
			}
			totalLoss += -wgt * math.Log(p)
			totalWeight += wgt
		}
	}
	if totalWeight == 0 {
		return 0, grad
	}
	invTW := float32(1 / totalWeight)

	// Second pass: gradient = weight * (softmax - onehot) / totalWeight.
	parallelFor(n, func(bi int) {
		for i := 0; i < h*w; i++ {
			t := targets[bi][i]
			wgt := float32(1)
			if classWeights != nil {
				wgt = classWeights[t]
			}
			y, x := i/w, i%w
			for ci := 0; ci < c; ci++ {
				g := probs.At4(bi, ci, y, x)
				if ci == t {
					g -= 1
				}
				grad.Set4(bi, ci, y, x, g*wgt*invTW)
			}
		}
	})
	return totalLoss / totalWeight, grad
}
