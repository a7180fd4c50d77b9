package nn

import (
	"fmt"
	"math"

	"safeland/internal/cpu"
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

// softmaxGroup is the pixel group softmaxAVX computes at once: eight
// float32 lanes.
const softmaxGroup = 8

// softmaxBlock bounds the pixels softmaxPixels takes per call: its running
// maxima and sums live in stack arrays of this length.
const softmaxBlock = 64

// softmaxChannelsInto computes the channel softmax of logits into out,
// which may alias logits; in a sample batch (Tensor.Dims5) each sample of
// a pixel is a pixel of its own. Every pixel gets the operations of the
// per-pixel textbook loop, in its order: the maximum m of its logits by v > m from
// −Inf, then each channel's e = float32(math.Exp(float64(v - m))) stored
// and summed in channel order, then one 1/sum that scales every e. The
// work goes one channel row at a time across a run of pixels, over
// contiguous memory: softmaxAVX takes groups of eight pixels where the CPU
// has AVX2 and FMA (cpu.Use), and softmaxPixels takes the rest — a group
// softmaxAVX refuses, the last pixels of a plane short of a group, and
// every pixel elsewhere. Within a pixel every logit is read before its
// slot in out is written, and pixels are independent.
func softmaxChannelsInto(out, logits *Tensor) {
	n, c, h, w, s := logits.Dims5()
	hw := h * w * s
	vector := cpu.Use.AVX2 && cpu.Use.FMA
	for bi := 0; bi < n; bi++ {
		o, x := out.Data[bi*c*hw:(bi+1)*c*hw], logits.Data[bi*c*hw:(bi+1)*c*hw]
		for p := 0; p < hw; {
			np := min(softmaxBlock, hw-p)
			if vector {
				if done := softmaxAVX(o[p:], x[p:], hw-p, c, hw); done > 0 {
					p += done
					continue
				}
				np = min(softmaxGroup, hw-p)
			}
			softmaxPixels(o[p:], x[p:], np, c, hw)
			p += np
		}
	}
}

// softmaxPixels is the portable body of softmaxChannelsInto for np ≤
// softmaxBlock pixels whose channel ci sits at x[ci*stride:][:np]; out is
// laid out alike and may alias x.
func softmaxPixels(out, x []float32, np, c, stride int) {
	var maxV, sum [softmaxBlock]float32
	m, s := maxV[:np], sum[:np]
	for i := range m {
		m[i] = float32(math.Inf(-1))
	}
	for ci := 0; ci < c; ci++ {
		for i, v := range x[ci*stride:][:np] {
			if v > m[i] {
				m[i] = v
			}
		}
	}
	for ci := 0; ci < c; ci++ {
		row := out[ci*stride:][:np]
		for i, v := range x[ci*stride:][:np] {
			e := float32(math.Exp(float64(v - m[i])))
			row[i] = e
			s[i] += e
		}
	}
	for i, v := range s {
		s[i] = 1 / v
	}
	for ci := 0; ci < c; ci++ {
		row := out[ci*stride:][:np]
		for i := range row {
			row[i] *= s[i]
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
