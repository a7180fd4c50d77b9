package nn

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// msdShape describes a random network of MSDnet's shape: a stem conv,
// batch norm and ReLU, a dropout, parallel branches of dilated convs, a
// dropout, a 1×1 head and optionally a trailing upsample. Each branch is
// conv→BN→ReLU, conv→BN, conv→ReLU or a bare conv (tail 0-3), so the
// frozen network must fuse the first kind only. Channel counts up to 20
// fill one or two convLanes blocks, the second one partial.
type msdShape struct {
	seed         int64
	stemC, outC  int
	stride       int
	branchC      []int
	dilation     []int
	tail         []int
	upsample     bool
	withScratch  bool
	dropoutP     float64
	negZeroBetas bool
}

// randomShape draws an msdShape.
func randomShape(rng *rand.Rand) msdShape {
	s := msdShape{
		seed:         rng.Int63(),
		stemC:        1 + rng.Intn(20),
		outC:         1 + rng.Intn(10),
		stride:       1 + rng.Intn(2),
		upsample:     rng.Intn(2) == 0,
		withScratch:  rng.Intn(2) == 0,
		dropoutP:     0.5 * rng.Float64(),
		negZeroBetas: rng.Intn(2) == 0,
	}
	for b := 1 + rng.Intn(3); b > 0; b-- {
		s.branchC = append(s.branchC, 1+rng.Intn(20))
		s.dilation = append(s.dilation, 1+rng.Intn(4))
		s.tail = append(s.tail, rng.Intn(4))
	}
	return s
}

// build constructs the network; equal shapes build equal networks. Every
// batch norm gets seeded statistics and affine parameters — γ of either
// sign, and some β of -0 when negZeroBetas — so the normalisation is far
// from the identity and can produce -0.
func (s msdShape) build() *Sequential {
	rng := rand.New(rand.NewSource(s.seed))
	bn := func(name string, c int) *BatchNorm2D {
		b := NewBatchNorm2D(name, c)
		for i := 0; i < c; i++ {
			b.RunningMean[i] = float32(rng.NormFloat64() * 0.5)
			b.RunningVar[i] = float32(0.1 + 2*rng.Float64())
			b.Gamma.Value.Data[i] = float32(rng.NormFloat64())
			b.Beta.Value.Data[i] = float32(rng.NormFloat64() * 0.3)
			if s.negZeroBetas && rng.Intn(3) == 0 {
				b.Beta.Value.Data[i] = float32(math.Copysign(0, -1))
			}
		}
		return b
	}
	layers := []Layer{
		NewConv2D("stem", 3, s.stemC, 3, s.stride, 1, 1, rng),
		bn("stem.bn", s.stemC),
		&ReLU{},
		NewDropout(s.dropoutP, s.seed+101),
	}
	branches := make([]Layer, len(s.branchC))
	total := 0
	for i, c := range s.branchC {
		d := s.dilation[i]
		seq := []Layer{NewConv2D("branch", s.stemC, c, 3, 1, d, d, rng)}
		switch s.tail[i] {
		case 0:
			seq = append(seq, bn("branch.bn", c), &ReLU{})
		case 1:
			seq = append(seq, bn("branch.bn", c))
		case 2:
			seq = append(seq, &ReLU{})
		}
		branches[i] = NewSequential(seq...)
		total += c
	}
	layers = append(layers,
		NewParallelConcat(branches...),
		NewDropout(s.dropoutP, s.seed+202),
		NewConv2D("head", total, s.outC, 1, 1, 0, 1, rng),
	)
	if s.upsample {
		layers = append(layers, &Upsample2x{})
	}
	net := NewSequential(layers...)
	if s.withScratch {
		AttachScratch(net, NewScratch())
	}
	return net
}

// fusedEpilogues counts the layers of l that run the BatchNorm→ReLU
// epilogue.
func fusedEpilogues(l Layer) int {
	n := 0
	Walk(l, func(p Layer) {
		if f, ok := p.(*fusedConv); ok && f.ep != nil {
			n++
		}
	})
	return n
}

// specialInput fills a tensor with values over six orders of magnitude of
// either sign, and with probability rate per element one of ±0, ±Inf, NaN
// or a denormal.
func specialInput(rng *rand.Rand, rate float64, shape ...int) *Tensor {
	specials := []float32{
		0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		math.Float32frombits(1), math.Float32frombits(0x80000001),
		math.Float32frombits(0x007fffff), math.Float32frombits(0x807fffff),
	}
	x := NewTensor(shape...)
	for i := range x.Data {
		if rng.Float64() < rate {
			x.Data[i] = specials[rng.Intn(len(specials))]
			continue
		}
		x.Data[i] = float32(rng.NormFloat64() * math.Pow(10, 6*rng.Float64()-3))
	}
	return x
}

// sameBitsOrNaN reports the first element where got and want differ in
// bits, counting any two NaNs as equal, or -1.
func sameBitsOrNaN(got, want []float32) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range got {
		g, w := got[i], want[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			return i
		}
	}
	return -1
}

// checkFrozenMatches runs s's network and a frozen network built from an
// identical one on x — dropout Auto, then AlwaysOn reseeded twice (the
// second replays the decision record) — on every conv body, and fails on
// the first output bit that differs.
func checkFrozenMatches(t *testing.T, s msdShape, x *Tensor) {
	t.Helper()
	ref := s.build()
	src := s.build()
	frozen := NewFrozenNet(src)
	wantFused := 1
	for _, tail := range s.tail {
		if tail == 0 {
			wantFused++
		}
	}
	if got := fusedEpilogues(frozen); got != wantFused {
		t.Fatalf("%+v: %d fused epilogues, want %d", s, got, wantFused)
	}
	forEachKernel(func(kernel string) {
		for _, mode := range []DropoutMode{Auto, AlwaysOn} {
			SetDropoutMode(ref, mode)
			SetDropoutMode(frozen, mode)
			for pass := 0; pass < 2; pass++ {
				ReseedDropout(ref, 77)
				ReseedDropout(frozen, 77)
				want := ref.Forward(x, false)
				got := frozen.Forward(x, false)
				if !got.SameShape(want) {
					t.Fatalf("%s, mode %d: shape %v, Net %v", kernel, mode, got.Shape, want.Shape)
				}
				if i := sameBitsOrNaN(got.Data, want.Data); i >= 0 {
					t.Fatalf("%s, mode %d, pass %d, %+v, input %v: element %d = %v (%#x), Net %v (%#x)",
						kernel, mode, pass, s, x.Shape, i, got.Data[i], math.Float32bits(got.Data[i]),
						want.Data[i], math.Float32bits(want.Data[i]))
				}
			}
		}
	})
}

// TestFrozenNetMatchesNet pins the frozen network to Net.Forward bit for
// bit over random MSDnet-shaped networks with seeded batch-norm statistics:
// even and odd input sizes, strides 1 and 2, one or two lane blocks, with
// and without an arena, inputs spanning six orders of magnitude plus ±0,
// ±Inf, NaN and denormals at several rates, dropout Auto and AlwaysOn, on
// every conv body the CPU has.
func TestFrozenNetMatchesNet(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	for trial := 0; trial < 150; trial++ {
		s := randomShape(rng)
		rate := []float64{0, 0.001, 0.02}[trial%3]
		x := specialInput(rng, rate, 1+rng.Intn(2), 3, 1+rng.Intn(24), 1+rng.Intn(24))
		checkFrozenMatches(t, s, x)
	}
}

// FuzzFrozenNetMatchesNet fuzzes the network shape, the input size and
// the share of special values; the frozen network must match Net bit for
// bit on every conv body the CPU has.
func FuzzFrozenNetMatchesNet(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(8), uint8(0))
	f.Add(int64(2), uint8(25), uint8(7), uint8(20))
	f.Add(int64(3), uint8(1), uint8(16), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, h, w, special uint8) {
		rng := rand.New(rand.NewSource(seed))
		s := randomShape(rng)
		x := specialInput(rng, float64(special)/1024, 1, 3, 1+int(h%32), 1+int(w%32))
		checkFrozenMatches(t, s, x)
	})
}

// TestFrozenNetStructure pins what NewFrozenNet shares and what it
// replaces: the source network is left as it was, the frozen one shares
// its dropout and upsample instances (so dropout modes, reseeds and
// records reach both), fuses each conv→BN→ReLU, turns the concat of two
// fused branches into one fused concat whose convs store at channels 0
// and 4, packs the head alone, and rejects training.
func TestFrozenNetStructure(t *testing.T) {
	net := miniMSDNet(5)
	before := append([]Layer(nil), net.Layers...)
	frozen, ok := NewFrozenNet(net).(*Sequential)
	if !ok {
		t.Fatal("frozen network of a Sequential is not a Sequential")
	}
	for i, l := range net.Layers {
		if l != before[i] {
			t.Fatalf("NewFrozenNet replaced layer %d of its source", i)
		}
	}
	// stem conv+BN+ReLU, dropout, concat, dropout, head, upsample.
	if len(frozen.Layers) != 6 {
		t.Fatalf("frozen network has %d layers, want 6", len(frozen.Layers))
	}
	for _, i := range []int{1, 3, 5} {
		if frozen.Layers[i] != net.Layers[i+2] {
			t.Fatalf("frozen layer %d (%T) is not the source's instance", i, frozen.Layers[i])
		}
	}
	if f := frozen.Layers[0].(*fusedConv); f.ep == nil {
		t.Fatal("stem conv→BN→ReLU not fused")
	}
	if f := frozen.Layers[4].(*fusedConv); f.ep != nil {
		t.Fatal("head conv runs an epilogue")
	}
	concat, ok := frozen.Layers[2].(*fusedConcat)
	if !ok {
		t.Fatalf("frozen concat is %T, want *fusedConcat", frozen.Layers[2])
	}
	if len(concat.convs) != 2 || concat.outC != 8 || len(concat.off) != 2 || concat.off[0] != 0 || concat.off[1] != 4 {
		t.Fatalf("fused concat: %d convs at channel offsets %v of %d, want 2 at [0 4] of 8",
			len(concat.convs), concat.off, concat.outC)
	}
	for i, c := range concat.convs {
		if c.ep == nil || c.conv.OutC != 4 {
			t.Fatalf("branch %d: epilogue %v, %d channels; want a fused conv→BN→ReLU of 4", i, c.ep != nil, c.conv.OutC)
		}
	}
	if got := fusedEpilogues(frozen); got != 3 {
		t.Fatalf("%d fused epilogues, want 3 (stem and two branches)", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a training pass through the frozen network did not panic")
		}
	}()
	frozen.Forward(randomInput([]int{1, 3, 8, 8}, 1), true)
}

// TestReLUBranchFreeMatchesCompare checks the branch-free select on every
// special bit pattern and on random ones: the output must be v > 0 ? v : +0
// bit for bit and the mask v > 0.
func TestReLUBranchFreeMatchesCompare(t *testing.T) {
	bits := []uint32{
		0, 0x80000000, // ±0
		1, 0x80000001, 0x007fffff, 0x807fffff, // denormals
		0x00800000, 0x80800000, 0x3f800000, 0xbf800000, // normals
		0x7f7fffff, 0xff7fffff, // ±MaxFloat32
		0x7f800000, 0xff800000, // ±Inf
		0x7f800001, 0x7fc00000, 0x7fffffff, 0xff800001, 0xffc00000, 0xffffffff, // NaNs
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1<<16; i++ {
		bits = append(bits, rng.Uint32())
	}
	x := NewTensor(len(bits))
	for i, b := range bits {
		x.Data[i] = math.Float32frombits(b)
	}
	r := &ReLU{}
	out := r.Forward(x, false)
	for i, v := range x.Data {
		want := float32(0)
		if v > 0 {
			want = v
		}
		if math.Float32bits(out.Data[i]) != math.Float32bits(want) || r.mask[i] != (v > 0) {
			t.Fatalf("bits %#x: out %#x mask %v, want %#x mask %v",
				bits[i], math.Float32bits(out.Data[i]), r.mask[i], math.Float32bits(want), v > 0)
		}
	}
}

// countdownCtx is a context whose Err turns to Canceled after left calls.
type countdownCtx struct {
	context.Context
	left int
}

func (c *countdownCtx) Err() error {
	if c.left == 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// TestFusedConcatCancelsBetweenConvs pins that the fused concat checks
// its context before each branch conv, so one conv stays the cancellation
// granularity, and returns its partly written output to the arena.
func TestFusedConcatCancelsBetweenConvs(t *testing.T) {
	net := miniMSDNet(5)
	sc := NewScratch()
	AttachScratch(net, sc)
	concat := NewFrozenNet(net).(*Sequential).Layers[2].(*fusedConcat)
	x := randomInput([]int{1, 6, 8, 8}, 2)
	for checks := 0; checks < len(concat.convs); checks++ {
		out, err := concat.ForwardCtx(&countdownCtx{Context: context.Background(), left: checks}, x, false)
		if out != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled before conv %d: output %v, error %v", checks, out != nil, err)
		}
		if free := sc.free[1*8*8*8]; len(free) != 1 {
			t.Fatalf("cancelled before conv %d: arena holds %d output-sized buffers, want 1", checks, len(free))
		}
	}
	if _, err := concat.ForwardCtx(&countdownCtx{Context: context.Background(), left: len(concat.convs)}, x, false); err != nil {
		t.Fatalf("one check per conv cancelled the pass: %v", err)
	}
}
