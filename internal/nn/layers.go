package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"safeland/internal/cpu"
)

// ReLU is the rectified linear activation.
type ReLU struct {
	mask []bool
	sc   *Scratch
}

func (r *ReLU) setScratch(s *Scratch) { r.sc = s }

// Forward computes v > 0 ? v : 0 and records v > 0 in the mask for
// Backward. It selects without a branch (see positive): activations are
// noisy in sign, and a branch on each mispredicts.
func (r *ReLU) Forward(x *Tensor, train bool) *Tensor {
	out := allocOut(r.sc, train, x.Shape...)
	if cap(r.mask) < len(x.Data) {
		r.mask = make([]bool, len(x.Data))
	}
	mask, dst := r.mask[:len(x.Data)], out.Data[:len(x.Data)]
	r.mask = mask
	for i, v := range x.Data {
		keep := positive(v)
		dst[i] = math.Float32frombits(math.Float32bits(v) & -keep)
		mask[i] = keep != 0
	}
	return out
}

// positive returns 1 when v > 0 and 0 otherwise, without a branch: v > 0
// exactly when its bits lie in [1, 0x7f800000] (the positive denormals up
// to +Inf), that is when bits-1 < 0x7f800000 unsigned, and the 64-bit
// difference of the two is negative exactly then. ±0, negatives and every
// NaN give 0, as v > 0 does.
func positive(v float32) uint32 {
	return uint32((uint64(math.Float32bits(v)-1) - 0x7f800000) >> 63)
}

// Backward passes gradient only through positive activations.
func (r *ReLU) Backward(dout *Tensor) *Tensor {
	dx := dout.Clone()
	for i := range dx.Data {
		if !r.mask[i] {
			dx.Data[i] = 0
		}
	}
	return dx
}

// Params returns nil: ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// DropoutMode selects when a Dropout layer is active.
type DropoutMode int

// Dropout modes. Auto is the conventional behavior (active only while
// training); AlwaysOn keeps dropout active at inference, which is what turns
// the trained network into its Bayesian Monte-Carlo variant (Gal &
// Ghahramani 2016, used by the paper's monitor).
const (
	Auto DropoutMode = iota
	AlwaysOn
)

// Dropout randomly zeroes activations with probability P and rescales the
// survivors by 1/(1-P) (inverted dropout).
//
// After Reseed the layer records every keep decision it draws, one byte per
// decision, so that a later Reseed with the same seed and P rewinds the
// record instead of redrawing the stream. The Bayesian monitor reseeds with
// one constant seed per verdict, so every verdict after the first on a
// replica replays its decisions instead of drawing them. The record keeps
// these invariants:
//   - it holds the first len(keep) decisions of the stream seeded with
//     recSeed under recP, each drawn as rng.Float64() < P exactly like an
//     unrecorded draw, and the source always sits at its end: draws past
//     the end extend it from the source;
//   - the same seed and P rewind it; any other seed or P restarts it;
//   - a training forward, or one after P changed, drops it and draws fresh,
//     from the stream position an unrecorded layer would be at;
//   - AlwaysOn inference with no prior Reseed draws fresh, as it always
//     did.
//
// So the decisions, and every output bit, are those of a layer that redraws
// its stream on every Reseed. The record is as long as the longest
// Monte-Carlo run since it restarted: one run's decisions, ~90 KB per
// replica over both MSDnet dropouts at the served 24 px crop.
//
// A sample batch of S samples of N units (Tensor.Dims5) takes the next
// N·S decisions, as S forwards of N units would: unit i of sample s takes
// decision s·N + i. The layer applies them through a sample-minor view of
// the decisions, unit i of sample s at i·S + s. It builds the view once and
// reuses it while the record replays the same decisions at the same
// cursor, so a replayed verdict transposes nothing; a restarted or dropped
// record, or another N or S, rebuilds it.
type Dropout struct {
	P    float64
	Mode DropoutMode

	mu  sync.Mutex
	src rand.Source
	rng *rand.Rand
	// keep holds the record (1 keeps a unit, 0 drops it) while recording,
	// and the last fresh draw otherwise; pos is the record's cursor.
	keep      []byte
	pos       int
	recording bool
	recSeed   int64
	recP      float64
	// view holds the sample-minor view of the record's decisions from
	// viewAt, for viewS samples of viewN units; viewOK is false when it
	// holds none of the current record. views counts the views built.
	view                 []byte
	viewAt, viewN, viewS int
	viewOK               bool
	views                int
	// mask aliases the decisions of the last forward, for Backward.
	mask []byte
	sc   *Scratch
}

func (d *Dropout) setScratch(s *Scratch) { d.sc = s }

// NewDropout constructs a dropout layer with its own seeded RNG so that
// Monte-Carlo sampling is reproducible.
func NewDropout(p float64, seed int64) *Dropout {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("nn: dropout probability %v outside [0,1)", p))
	}
	src := rand.NewSource(seed)
	return &Dropout{P: p, src: src, rng: rand.New(src)}
}

// Reseed makes the following Monte-Carlo sample sequence reproducible: it
// rewinds the decision record when the record was started with the same
// seed and P, and otherwise reseeds the source and starts a new record. The
// source is reseeded in place — Source.Seed restores exactly the state a
// fresh NewSource(seed) would have — so reseeding allocates nothing.
func (d *Dropout) Reseed(seed int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.recording && seed == d.recSeed && d.P == d.recP {
		d.pos = 0
		return
	}
	if d.src == nil {
		d.src = rand.NewSource(seed)
		d.rng = rand.New(d.src)
	} else {
		d.src.Seed(seed)
	}
	d.keep, d.pos = d.keep[:0], 0
	d.recording, d.recSeed, d.recP = true, seed, d.P
	d.viewOK = false
}

func (d *Dropout) active(train bool) bool { return train || d.Mode == AlwaysOn }

// Forward applies the dropout mask into a new tensor (arena-backed on
// inference passes). An inactive layer — Auto outside training, or P = 0
// — returns x itself: every caller that recycles intermediates
// already refuses to recycle a tensor that is its own input or output.
// A sample batch (Tensor.Dims5) takes its decisions sample by sample, in
// the order S forwards of one sample each would, through the layer's
// sample-minor view (see Dropout).
func (d *Dropout) Forward(x *Tensor, train bool) *Tensor {
	if !d.active(train) || d.P == 0 {
		d.mask = nil
		return x
	}
	_, _, _, _, s := x.Dims5()
	out := allocOut(d.sc, train, x.Shape...)
	d.mu.Lock()
	at := d.pos
	keep := d.decisions(len(x.Data), train)
	if s > 1 {
		keep = d.sampleMinor(keep, at, len(x.Data)/s, s)
	}
	d.mu.Unlock()
	d.mask = keep
	applyKeep(out.Data[:len(keep)], x.Data[:len(keep)], keep, float32(1/(1-d.P)))
	return out
}

// sampleMinor returns keep, the decisions of s samples of n units each
// taken from the record at cursor at (or freshly drawn), in sample-minor
// order: unit i of sample j at i*s + j. While the record holds the view
// built for the same cursor, n and s, it returns that view as it is. d.mu
// must be held.
func (d *Dropout) sampleMinor(keep []byte, at, n, s int) []byte {
	if d.recording && d.viewOK && d.viewAt == at && d.viewN == n && d.viewS == s {
		return d.view
	}
	d.view = slices.Grow(d.view[:0], n*s)[:n*s]
	for j := 0; j < s; j++ {
		for i, k := range keep[j*n : (j+1)*n] {
			d.view[i*s+j] = k
		}
	}
	d.views++
	d.viewOK, d.viewAt, d.viewN, d.viewS = d.recording, at, n, s
	return d.view
}

// applyKeep sets dst[i] to the bits of src[i]*scale ANDed with -keep[i]:
// the scaled unit where keep[i] is 1 and +0 where it is 0. Masking the
// bits, not multiplying by 0, keeps a dropped unit +0 whatever its sign
// (v*0 is -0 for negative v). It runs applyKeepAVX where the CPU has AVX2
// (cpu.Use) and applyKeepGo elsewhere, with the same bits. dst and src
// hold len(keep) elements.
func applyKeep(dst, src []float32, keep []byte, scale float32) {
	if cpu.Use.AVX2 {
		applyKeepAVX(dst, src, keep, scale)
		return
	}
	applyKeepGo(dst, src, keep, scale)
}

// applyKeepGo is the portable body of applyKeep.
func applyKeepGo(dst, src []float32, keep []byte, scale float32) {
	dst, src = dst[:len(keep)], src[:len(keep)]
	for i, v := range src {
		dst[i] = math.Float32frombits(math.Float32bits(v*scale) & -uint32(keep[i]))
	}
}

// decisions returns the next n keep decisions: replayed from the record and
// extending it while one is held, freshly drawn otherwise. d.mu must be
// held.
func (d *Dropout) decisions(n int, train bool) []byte {
	if train || d.P != d.recP {
		d.dropRecord()
	}
	if !d.recording {
		d.keep = slices.Grow(d.keep[:0], n)[:n]
		d.draw(d.keep)
		return d.keep
	}
	end := d.pos + n
	if have := len(d.keep); end > have {
		d.keep = slices.Grow(d.keep, end-have)[:end]
		d.draw(d.keep[have:])
	}
	keep := d.keep[d.pos:end:end]
	d.pos = end
	return keep
}

// dropRecord stops recording and moves the source from the record's end
// back to its cursor, where an unrecorded layer's stream would be.
func (d *Dropout) dropRecord() {
	if !d.recording {
		return
	}
	d.recording, d.viewOK = false, false
	if d.pos == len(d.keep) {
		return
	}
	d.src.Seed(d.recSeed)
	for i := 0; i < d.pos; i++ {
		d.rng.Float64()
	}
}

// draw fills keep with fresh decisions from the source.
func (d *Dropout) draw(keep []byte) {
	for i := range keep {
		if d.rng.Float64() < d.P {
			keep[i] = 0
		} else {
			keep[i] = 1
		}
	}
}

// Backward routes gradient through surviving activations only.
func (d *Dropout) Backward(dout *Tensor) *Tensor {
	dx := dout.Clone()
	if d.mask == nil {
		return dx
	}
	scale := float32(1 / (1 - d.P))
	for i := range dx.Data {
		if d.mask[i] != 0 {
			dx.Data[i] *= scale
		} else {
			dx.Data[i] = 0
		}
	}
	return dx
}

// Params returns nil: dropout has no parameters.
func (d *Dropout) Params() []*Param { return nil }

// BatchNorm2D normalizes each channel over the batch and spatial dimensions,
// with learnable scale/shift and running statistics for inference.
type BatchNorm2D struct {
	C        int
	Eps      float32
	Momentum float32

	Gamma, Beta *Param

	RunningMean, RunningVar []float32

	// caches for backward
	x        *Tensor
	xhat     []float32
	mean, vr []float32

	sc *Scratch
}

func (bn *BatchNorm2D) setScratch(s *Scratch) { bn.sc = s }

// NewBatchNorm2D constructs a batch norm over c channels.
func NewBatchNorm2D(name string, c int) *BatchNorm2D {
	bn := &BatchNorm2D{
		C: c, Eps: 1e-5, Momentum: 0.1,
		Gamma:       NewParam(name+".gamma", c),
		Beta:        NewParam(name+".beta", c),
		RunningMean: make([]float32, c),
		RunningVar:  make([]float32, c),
	}
	bn.Gamma.Value.Fill(1)
	for i := range bn.RunningVar {
		bn.RunningVar[i] = 1
	}
	return bn
}

// Forward normalizes with batch statistics (train) or running statistics.
// Inference also takes a sample batch (Tensor.Dims5); training takes 4-D
// only.
func (bn *BatchNorm2D) Forward(x *Tensor, train bool) *Tensor {
	if _, c, _, _, _ := x.Dims5(); c != bn.C {
		panic(fmt.Sprintf("nn: batchnorm expects %d channels, got %d", bn.C, c))
	}
	out := allocOut(bn.sc, train, x.Shape...)
	if !train {
		bn.infer(x, out)
		return out
	}
	n, c, h, w := x.Dims4()
	cnt := float32(n * h * w)
	if bn.mean == nil {
		bn.mean = make([]float32, c)
		bn.vr = make([]float32, c)
	}
	bn.x = x
	if cap(bn.xhat) < len(x.Data) {
		bn.xhat = make([]float32, len(x.Data))
	}
	bn.xhat = bn.xhat[:len(x.Data)]
	parallelFor(c, func(ci int) {
		var sum float64
		for bi := 0; bi < n; bi++ {
			base := (bi*c + ci) * h * w
			for i := 0; i < h*w; i++ {
				sum += float64(x.Data[base+i])
			}
		}
		mean := float32(sum / float64(cnt))
		var vsum float64
		for bi := 0; bi < n; bi++ {
			base := (bi*c + ci) * h * w
			for i := 0; i < h*w; i++ {
				d := x.Data[base+i] - mean
				vsum += float64(d * d)
			}
		}
		variance := float32(vsum / float64(cnt))
		bn.mean[ci], bn.vr[ci] = mean, variance
		bn.RunningMean[ci] = (1-bn.Momentum)*bn.RunningMean[ci] + bn.Momentum*mean
		bn.RunningVar[ci] = (1-bn.Momentum)*bn.RunningVar[ci] + bn.Momentum*variance
		inv := float32(1 / math.Sqrt(float64(variance+bn.Eps)))
		g, b := bn.Gamma.Value.Data[ci], bn.Beta.Value.Data[ci]
		for bi := 0; bi < n; bi++ {
			base := (bi*c + ci) * h * w
			for i := 0; i < h*w; i++ {
				xh := (x.Data[base+i] - mean) * inv
				bn.xhat[base+i] = xh
				out.Data[base+i] = g*xh + b
			}
		}
	})
	return out
}

// infer normalises x into out with the running statistics; a sample
// batch's channel plane is its H·W·S values.
func (bn *BatchNorm2D) infer(x, out *Tensor) {
	n, c, h, w, s := x.Dims5()
	plane := h * w * s
	for ci := 0; ci < c; ci++ {
		inv := float32(1 / math.Sqrt(float64(bn.RunningVar[ci]+bn.Eps)))
		mean := bn.RunningMean[ci]
		g, b := bn.Gamma.Value.Data[ci], bn.Beta.Value.Data[ci]
		for bi := 0; bi < n; bi++ {
			base := (bi*c + ci) * plane
			for i := 0; i < plane; i++ {
				// The conversion rounds the product before b is added, so
				// no GOARCH fuses them into one multiply-add (arm64 would):
				// the frozen network's epilogue computes the same bits.
				out.Data[base+i] = float32(g*(x.Data[base+i]-mean)*inv) + b
			}
		}
	}
}

// Backward implements the standard batch-norm gradient.
func (bn *BatchNorm2D) Backward(dout *Tensor) *Tensor {
	x := bn.x
	if x == nil {
		panic("nn: batchnorm Backward before training Forward")
	}
	n, c, h, w := x.Dims4()
	dx := x.ZerosLike()
	m := float32(n * h * w)
	parallelFor(c, func(ci int) {
		inv := float32(1 / math.Sqrt(float64(bn.vr[ci]+bn.Eps)))
		g := bn.Gamma.Value.Data[ci]
		var dgamma, dbeta, dxhSum, dxhXhatSum float64
		for bi := 0; bi < n; bi++ {
			base := (bi*c + ci) * h * w
			for i := 0; i < h*w; i++ {
				dy := dout.Data[base+i]
				xh := bn.xhat[base+i]
				dgamma += float64(dy * xh)
				dbeta += float64(dy)
				dxh := dy * g
				dxhSum += float64(dxh)
				dxhXhatSum += float64(dxh * xh)
			}
		}
		bn.Gamma.Grad.Data[ci] += float32(dgamma)
		bn.Beta.Grad.Data[ci] += float32(dbeta)
		for bi := 0; bi < n; bi++ {
			base := (bi*c + ci) * h * w
			for i := 0; i < h*w; i++ {
				dxh := dout.Data[base+i] * g
				xh := bn.xhat[base+i]
				dx.Data[base+i] = inv * (dxh - float32(dxhSum)/m - xh*float32(dxhXhatSum)/m)
			}
		}
	})
	return dx
}

// Params returns the scale and shift parameters.
func (bn *BatchNorm2D) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

// Upsample2x doubles the spatial resolution by nearest-neighbor replication.
// It lets a stride-2 stem keep the output at input resolution.
type Upsample2x struct {
	inH, inW int
	sc       *Scratch
}

func (u *Upsample2x) setScratch(s *Scratch) { u.sc = s }

// Forward replicates each pixel into a 2×2 block.
func (u *Upsample2x) Forward(x *Tensor, train bool) *Tensor {
	n, c, h, w := x.Dims4()
	u.inH, u.inW = h, w
	out := allocOut(u.sc, train, n, c, h*2, w*2)
	for job := 0; job < n*c; job++ {
		inBase := job * h * w
		outBase := job * h * w * 4
		for y := 0; y < h; y++ {
			for x2 := 0; x2 < w; x2++ {
				v := x.Data[inBase+y*w+x2]
				o := outBase + (2*y)*(2*w) + 2*x2
				out.Data[o] = v
				out.Data[o+1] = v
				out.Data[o+2*w] = v
				out.Data[o+2*w+1] = v
			}
		}
	}
	return out
}

// Backward sums the four replicated gradients back into each source pixel.
func (u *Upsample2x) Backward(dout *Tensor) *Tensor {
	n, c, oh, ow := dout.Dims4()
	h, w := oh/2, ow/2
	dx := NewTensor(n, c, h, w)
	parallelFor(n*c, func(job int) {
		inBase := job * h * w
		outBase := job * oh * ow
		for y := 0; y < h; y++ {
			for x2 := 0; x2 < w; x2++ {
				o := outBase + (2*y)*ow + 2*x2
				dx.Data[inBase+y*w+x2] = dout.Data[o] + dout.Data[o+1] +
					dout.Data[o+ow] + dout.Data[o+ow+1]
			}
		}
	})
	return dx
}

// Params returns nil: upsampling has no parameters.
func (u *Upsample2x) Params() []*Param { return nil }
