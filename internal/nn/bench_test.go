package nn

import (
	"math/rand"
	"testing"
)

// benchConvForward times one forward pass of a convolution at the given
// geometry. Allocations are reported so the BENCH_nn.json trajectory tracks
// the scratch arena's steady-state behavior alongside ns/op.
func benchConvForward(b *testing.B, inC, outC, k, stride, pad, dil, h, w int) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	c := NewConv2D("c", inC, outC, k, stride, pad, dil, rng)
	x := randomInput([]int{1, inC, h, w}, 2)
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
	benchConvForward(b, 20, 14, 3, 1, 2, 2, 64, 64)
}

// BenchmarkConvForwardCropTrunk is the d = 4 dilated branch convolution on
// the 12×12 trunk of a served 24 px monitor crop — the shape the Bayesian
// monitor pays for on every Monte-Carlo sample, where most taps of most
// pixels fall outside the input.
func BenchmarkConvForwardCropTrunk(b *testing.B) {
	benchConvForward(b, 20, 14, 3, 1, 4, 4, 12, 12)
}

// BenchmarkConvForwardE8Scene is the MSDnet stem at the E8 full-scene size
// (192×192, stride-2): the per-frame segmentation cost of the experiment
// fleets.
func BenchmarkConvForwardE8Scene(b *testing.B) {
	benchConvForward(b, 3, 20, 3, 2, 1, 1, 192, 192)
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
