package nn

import (
	"math/rand"
	"testing"
)

// benchConvForward times one forward pass of a convolution at the given
// geometry, over a 4-D input when samples is 1 and over a Monte-Carlo
// sample batch (Tensor.Dims5) otherwise. Allocations are reported so the
// BENCH_nn.json trajectory tracks the scratch arena's steady-state
// behavior alongside ns/op.
func benchConvForward(b *testing.B, inC, outC, k, stride, pad, dil, h, w, samples int) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	c := NewConv2D("c", inC, outC, k, stride, pad, dil, rng)
	shape := []int{1, inC, h, w}
	if samples > 1 {
		shape = append(shape, samples)
	}
	x := randomInput(shape, 2)
	// Steady-state serving shape: outputs cycle through a per-replica arena,
	// so after warmup each forward allocates O(1) bookkeeping only.
	sc := NewScratch()
	AttachScratch(c, sc)
	sc.Put(c.Forward(x, false))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Put(c.Forward(x, false))
	}
}

// BenchmarkConvForwardSmall is the d = 2 dilated branch convolution on a
// 64×64 trunk (a 128 px frame): mostly interior taps.
func BenchmarkConvForwardSmall(b *testing.B) {
	benchConvForward(b, 20, 14, 3, 1, 2, 2, 64, 64, 1)
}

// BenchmarkConvForwardCropTrunk is the d = 4 dilated branch convolution on
// the 12×12 trunk of a served 24 px monitor crop, for one sample: most
// taps of most pixels fall outside the input, and the column runs are 4 +
// 4 + 4 pixels.
func BenchmarkConvForwardCropTrunk(b *testing.B) {
	benchConvForward(b, 20, 14, 3, 1, 4, 4, 12, 12, 1)
}

// BenchmarkConvForwardCropTrunkBatch is BenchmarkConvForwardCropTrunk over
// the sample batch of the 10 Monte-Carlo samples a verdict runs at once —
// the shape the Bayesian monitor pays for — whose column runs are 40 + 40
// + 40 pixels, ten times the single sample's.
func BenchmarkConvForwardCropTrunkBatch(b *testing.B) {
	benchConvForward(b, 20, 14, 3, 1, 4, 4, 12, 12, 10)
}

// BenchmarkConvForwardE8Scene is the MSDnet stem at the E8 full-scene size
// (192×192, stride-2): the per-frame segmentation cost of the experiment
// fleets.
func BenchmarkConvForwardE8Scene(b *testing.B) {
	benchConvForward(b, 3, 20, 3, 2, 1, 1, 192, 192, 1)
}

// BenchmarkConvBackward times the gradient pass (dW, dB and the dX gather)
// of a branch convolution, the training hot path.
func BenchmarkConvBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := NewConv2D("c", 20, 14, 3, 1, 2, 2, rng)
	x := randomInput([]int{1, 20, 48, 48}, 2)
	out := c.Forward(x, true)
	dout := out.ZerosLike()
	for i := range dout.Data {
		dout.Data[i] = rng.Float32()*2 - 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Backward(dout)
	}
}
