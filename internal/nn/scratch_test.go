package nn

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// miniMSDNet builds a small replica of the segmentation architecture —
// stem, dropout, parallel dilated branches, dropout, head, upsample — so
// the arena and split tests exercise every layer kind and both container
// types. Identical seeds build identical networks.
func miniMSDNet(seed int64) *Sequential {
	rng := rand.New(rand.NewSource(seed))
	return NewSequential(
		NewConv2D("stem", 3, 6, 3, 2, 1, 1, rng),
		NewBatchNorm2D("stem.bn", 6),
		&ReLU{},
		NewDropout(0.5, seed+101),
		NewParallelConcat(
			NewSequential(NewConv2D("b1", 6, 4, 3, 1, 1, 1, rng), NewBatchNorm2D("b1.bn", 4), &ReLU{}),
			NewSequential(NewConv2D("b2", 6, 4, 3, 1, 2, 2, rng), NewBatchNorm2D("b2.bn", 4), &ReLU{}),
		),
		NewDropout(0.5, seed+202),
		NewConv2D("head", 8, 5, 1, 1, 0, 1, rng),
		&Upsample2x{},
	)
}

func TestScratchReusesBuffers(t *testing.T) {
	sc := NewScratch()
	a := sc.Get(2, 3, 4)
	if a.Numel() != 24 {
		t.Fatalf("numel %d", a.Numel())
	}
	sc.Put(a)
	b := sc.Get(4, 3, 2) // same element count, different shape
	if &a.Data[0] != &b.Data[0] {
		t.Fatal("Get did not reuse the freed buffer")
	}
	if b.Shape[0] != 4 || b.Shape[1] != 3 || b.Shape[2] != 2 {
		t.Fatalf("reused shape %v", b.Shape)
	}
	if sc.Reuses() != 1 {
		t.Fatalf("reuses = %d, want 1", sc.Reuses())
	}
	c := sc.Get(2, 2) // no free buffer of this size
	if &c.Data[0] == &b.Data[0] {
		t.Fatal("distinct sizes shared a buffer")
	}
}

func TestScratchNilIsSafe(t *testing.T) {
	var sc *Scratch
	tr := sc.Get(1, 2, 3)
	if tr.Numel() != 6 {
		t.Fatalf("nil Get numel %d", tr.Numel())
	}
	sc.Put(tr) // no-op
	if sc.Reuses() != 0 {
		t.Fatal("nil Reuses not zero")
	}
}

// TestArenaForwardBitIdentical pins the whole point of the arena: an
// inference pass drawing every intermediate from a warm (dirty) arena must
// produce byte-identical outputs to a fresh-allocation pass, both with
// dropout inactive and in the reseeded Monte-Carlo mode.
func TestArenaForwardBitIdentical(t *testing.T) {
	plain := miniMSDNet(5)
	arena := miniMSDNet(5)
	sc := NewScratch()
	AttachScratch(arena, sc)
	x := randomInput([]int{1, 3, 16, 16}, 6)

	for round := 0; round < 3; round++ {
		a := plain.Forward(x, false)
		b := arena.Forward(x, false)
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				t.Fatalf("round %d: eval output %d differs: %v vs %v", round, i, a.Data[i], b.Data[i])
			}
		}
		sc.Put(b)
	}
	if sc.Reuses() == 0 {
		t.Fatal("arena never reused a buffer")
	}

	for round := 0; round < 2; round++ {
		SetDropoutMode(plain, AlwaysOn)
		ReseedDropout(plain, 99)
		a := plain.Forward(x, false)
		SetDropoutMode(plain, Auto)
		SetDropoutMode(arena, AlwaysOn)
		ReseedDropout(arena, 99)
		b := arena.Forward(x, false)
		SetDropoutMode(arena, Auto)
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				t.Fatalf("round %d: MC output %d differs", round, i)
			}
		}
		sc.Put(b)
	}
}

// TestArenaCutsSteadyStateAllocations asserts the arena's purpose
// quantitatively: a warm arena-backed forward allocates a small fraction of
// what a fresh-allocation forward does.
func TestArenaCutsSteadyStateAllocations(t *testing.T) {
	plain := miniMSDNet(7)
	arena := miniMSDNet(7)
	sc := NewScratch()
	AttachScratch(arena, sc)
	x := randomInput([]int{1, 3, 16, 16}, 8)
	sc.Put(arena.Forward(x, false)) // warm the free lists

	// The strict invariant: once warm, the arena never misses — no tensor
	// buffer is allocated by any further forward pass.
	misses := sc.misses
	for i := 0; i < 5; i++ {
		sc.Put(arena.Forward(x, false))
	}
	if sc.misses != misses {
		t.Fatalf("warm arena missed %d times during steady-state forwards", sc.misses-misses)
	}

	// And the aggregate effect: object counts drop to the parallelFor
	// closure noise, well below the fresh-allocation baseline.
	without := testing.AllocsPerRun(20, func() { plain.Forward(x, false) })
	with := testing.AllocsPerRun(20, func() { sc.Put(arena.Forward(x, false)) })
	if with > without/3 {
		t.Fatalf("arena forward allocates %.1f objects/run vs %.1f without — expected at least 3x fewer", with, without)
	}
}

// TestArenaTrainingBypasses pins that training passes never draw from the
// arena: Backward needs intact caches, so train=true must allocate fresh
// tensors even with an arena attached.
func TestArenaTrainingBypasses(t *testing.T) {
	net := miniMSDNet(9)
	sc := NewScratch()
	AttachScratch(net, sc)
	x := randomInput([]int{1, 3, 16, 16}, 10)
	// Inference warms the arena, then a training pass must not consume it.
	sc.Put(net.Forward(x, false))
	before := sc.gets
	out := net.Forward(x, true)
	if sc.gets != before {
		t.Fatalf("training pass drew %d buffers from the arena", sc.gets-before)
	}
	dout := out.ZerosLike()
	dout.Fill(1)
	net.Backward(dout) // must not panic on recycled caches
}

// TestConvBackwardAfterArenaInferencePanics pins the stale-cache guard: an
// arena-backed inference pass recycles the conv's input mid-chain, so a
// Backward after it must fail loudly instead of silently differentiating
// overwritten data. (Without an arena, eval-mode Forward + Backward remains
// supported — the gradient tests rely on it.)
func TestConvBackwardAfterArenaInferencePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	c := NewConv2D("c", 1, 1, 3, 1, 1, 1, rng)
	sc := NewScratch()
	AttachScratch(c, sc)
	x := randomInput([]int{1, 1, 8, 8}, 20)
	out := c.Forward(x, false)
	defer func() {
		if recover() == nil {
			t.Fatal("Backward after arena-backed inference forward must panic")
		}
	}()
	c.Backward(out.ZerosLike())
}

func TestAttachScratchReachesEveryLayer(t *testing.T) {
	net := miniMSDNet(11)
	sc := NewScratch()
	AttachScratch(net, sc)
	if net.sc != sc {
		t.Fatal("sequential not attached")
	}
	count := 0
	Walk(net, func(l Layer) {
		count++
		switch v := l.(type) {
		case *Conv2D:
			if v.sc != sc {
				t.Fatalf("conv %s not attached", v.W.Name)
			}
		case *BatchNorm2D:
			if v.sc != sc {
				t.Fatal("batchnorm not attached")
			}
		case *ReLU:
			if v.sc != sc {
				t.Fatal("relu not attached")
			}
		case *Dropout:
			if v.sc != sc {
				t.Fatal("dropout not attached")
			}
		case *Upsample2x:
			if v.sc != sc {
				t.Fatal("upsample not attached")
			}
		}
	})
	if count == 0 {
		t.Fatal("walk visited nothing")
	}
}

func TestSplitAtFirstDropout(t *testing.T) {
	net := miniMSDNet(13)
	prefix, suffix, ok := SplitAtFirstDropout(net)
	if !ok {
		t.Fatal("split failed on dropout-bearing net")
	}
	ps, ss := prefix.(*Sequential), suffix.(*Sequential)
	if len(ps.Layers) != 3 || len(ss.Layers) != 5 {
		t.Fatalf("split %d + %d layers, want 3 + 5", len(ps.Layers), len(ss.Layers))
	}
	if containsDropout(prefix) {
		t.Fatal("prefix contains a dropout")
	}
	if _, isDrop := ss.Layers[0].(*Dropout); !isDrop {
		t.Fatal("suffix does not start at the dropout")
	}
	// The split aliases the original layers, shares no new parameters.
	if &ps.Layers[0] == nil || ps.Layers[0] != net.Layers[0] {
		t.Fatal("prefix does not alias the original layers")
	}

	// Running prefix then suffix must equal running the full net, for the
	// same dropout stream.
	x := randomInput([]int{1, 3, 16, 16}, 14)
	SetDropoutMode(net, AlwaysOn)
	defer SetDropoutMode(net, Auto)
	ReseedDropout(net, 55)
	want := net.Forward(x, false)
	ReseedDropout(net, 55)
	stem := prefix.Forward(x, false)
	got := suffix.Forward(stem, false)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("split forward differs at %d", i)
		}
	}
}

func TestSplitAtFirstDropoutDegenerateCases(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	conv := NewConv2D("c", 1, 1, 1, 1, 0, 1, rng)
	if _, suffix, ok := SplitAtFirstDropout(conv); ok || suffix != Layer(conv) {
		t.Fatal("non-sequential should not split")
	}
	noDrop := NewSequential(NewConv2D("c", 1, 2, 3, 1, 1, 1, rng), &ReLU{})
	if _, _, ok := SplitAtFirstDropout(noDrop); ok {
		t.Fatal("dropout-free net should not split")
	}
	dropFirst := NewSequential(NewDropout(0.5, 1), NewConv2D("c", 1, 1, 1, 1, 0, 1, rng))
	if _, _, ok := SplitAtFirstDropout(dropFirst); ok {
		t.Fatal("leading dropout leaves an empty prefix; must not split")
	}
	// A dropout nested inside a container splits before the container.
	nested := NewSequential(
		&ReLU{},
		NewParallelConcat(NewSequential(NewDropout(0.5, 2), NewConv2D("n", 1, 1, 1, 1, 0, 1, rng))),
	)
	prefix, _, ok := SplitAtFirstDropout(nested)
	if !ok {
		t.Fatal("nested dropout should split")
	}
	if got := len(prefix.(*Sequential).Layers); got != 1 {
		t.Fatalf("nested split prefix has %d layers, want 1", got)
	}
}

func TestSplitTrailingUpsample(t *testing.T) {
	net := miniMSDNet(19)
	AttachScratch(net, NewScratch())
	_, suffix, _ := SplitAtFirstDropout(net)
	body, up, ok := SplitTrailingUpsample(suffix)
	if !ok {
		t.Fatal("split failed on a suffix ending in Upsample2x")
	}
	bs := body.(*Sequential)
	if len(bs.Layers) != 4 || up != net.Layers[len(net.Layers)-1] || bs.sc != net.sc {
		t.Fatalf("split %d layers + %p (arena kept %v), want 4 + the net's upsample", len(bs.Layers), up, bs.sc == net.sc)
	}

	// body then up is the suffix, for the same dropout stream.
	stem := randomInput([]int{1, 6, 8, 8}, 20)
	SetDropoutMode(net, AlwaysOn)
	defer SetDropoutMode(net, Auto)
	ReseedDropout(net, 21)
	want := suffix.Forward(stem, false).Clone()
	ReseedDropout(net, 21)
	got := up.Forward(body.Forward(stem, false), false)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("split forward differs at %d", i)
		}
	}

	rng := rand.New(rand.NewSource(22))
	conv := NewConv2D("c", 1, 1, 1, 1, 0, 1, rng)
	for name, l := range map[string]Layer{
		"non-sequential":       conv,
		"no trailing upsample": NewSequential(&Upsample2x{}, conv),
		"nothing before it":    NewSequential(&Upsample2x{}),
	} {
		if b, u, ok := SplitTrailingUpsample(l); ok || b != l || u != nil {
			t.Fatalf("%s: split %v, want l itself", name, ok)
		}
	}
}

func TestSoftmaxChannelsInPlaceMatches(t *testing.T) {
	logits := randomInput([]int{2, 5, 3, 4}, 16)
	for i := range logits.Data {
		logits.Data[i] *= 10
	}
	want := SoftmaxChannels(logits)
	mut := logits.Clone()
	got := SoftmaxChannelsInPlace(mut)
	if got != mut {
		t.Fatal("InPlace did not return its argument")
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("in-place softmax differs at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

// TestSoftmaxCommutesWithUpsample pins what lets the Bayesian monitor take
// its softmax at head resolution: softmax then Upsample2x is bitwise equal
// to Upsample2x then softmax, because the softmax works on one pixel column
// at a time and the upsample copies whole columns.
func TestSoftmaxCommutesWithUpsample(t *testing.T) {
	for _, hw := range [][2]int{{4, 4}, {3, 5}, {7, 6}} {
		for _, scale := range []float32{1, 10, 100} {
			logits := randomInput([]int{2, 8, hw[0], hw[1]}, int64(hw[0]*hw[1]))
			for i := range logits.Data {
				logits.Data[i] *= scale
			}
			want := SoftmaxChannels((&Upsample2x{}).Forward(logits, false))
			got := (&Upsample2x{}).Forward(SoftmaxChannels(logits), false)
			if !got.SameShape(want) {
				t.Fatalf("%dx%d: shape %v, want %v", hw[0], hw[1], got.Shape, want.Shape)
			}
			for i := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("%dx%d ×%v: element %d = %v, upsample-then-softmax %v", hw[0], hw[1], scale, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

func TestSetParallelismCapsAndRestores(t *testing.T) {
	defer SetParallelism(0)
	max := runtime.GOMAXPROCS(0)
	SetParallelism(1)
	if got := Parallelism(); got != 1 {
		t.Fatalf("capped parallelism = %d, want 1", got)
	}
	SetParallelism(max + 100) // above GOMAXPROCS: the cap only shrinks
	if got := Parallelism(); got != max {
		t.Fatalf("over-cap parallelism = %d, want %d", got, max)
	}
	SetParallelism(-3) // negative resets
	if got := Parallelism(); got != max {
		t.Fatalf("reset parallelism = %d, want %d", got, max)
	}

	// A capped op still computes the same bits.
	rng := rand.New(rand.NewSource(17))
	c := NewConv2D("c", 2, 3, 3, 1, 1, 1, rng)
	x := randomInput([]int{2, 2, 12, 12}, 18)
	want := c.Forward(x, false)
	SetParallelism(1)
	got := c.Forward(x, false)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("capped conv differs at %d", i)
		}
	}
}

// TestDropoutReseedReusesSource pins that the allocation-free in-place
// reseed produces the same stream as rebuilding the source from scratch.
func TestDropoutReseedReusesSource(t *testing.T) {
	a := NewDropout(0.5, 1)
	b := NewDropout(0.5, 2) // different initial seed
	a.Mode, b.Mode = AlwaysOn, AlwaysOn
	x := NewTensor(1, 1, 16, 16)
	x.Fill(1)
	// Burn some of b's stream so its internal state diverges before reseed.
	b.Forward(x, false)
	a.Reseed(42)
	b.Reseed(42)
	av := a.Forward(x, false)
	bv := b.Forward(x, false)
	for i := range av.Data {
		if av.Data[i] != bv.Data[i] {
			t.Fatal("reseeded streams differ")
		}
	}
}
