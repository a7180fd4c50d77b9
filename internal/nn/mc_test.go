package nn

import (
	"math"
	"math/rand"
	"testing"
)

// softmaxRef is the per-pixel loop softmaxChannelsInto replaced, kept as
// its oracle: for each pixel, the maximum by v > m from -Inf, then each
// e = float32(math.Exp(float64(v - m))) stored and summed in channel
// order, then every e times 1/sum.
func softmaxRef(out, logits *Tensor) {
	n, c, h, w := logits.Dims4()
	for bi := 0; bi < n; bi++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				maxV := float32(math.Inf(-1))
				for ci := 0; ci < c; ci++ {
					if v := logits.At4(bi, ci, y, x); v > maxV {
						maxV = v
					}
				}
				var sum float32
				for ci := 0; ci < c; ci++ {
					e := float32(math.Exp(float64(logits.At4(bi, ci, y, x) - maxV)))
					out.Set4(bi, ci, y, x, e)
					sum += e
				}
				inv := 1 / sum
				for ci := 0; ci < c; ci++ {
					out.Set4(bi, ci, y, x, out.At4(bi, ci, y, x)*inv)
				}
			}
		}
	}
}

// softmaxLogits draws logits a few units apart, ties between them, and at
// rate special each of a logit far enough out to spread its pixel past the
// vector exp's domain and one of ±0, ±Inf, NaN or a denormal.
func softmaxLogits(rng *rand.Rand, special float64, shape ...int) *Tensor {
	specials := []float32{
		0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		math.Float32frombits(1), math.Float32frombits(0x80000001),
	}
	x := NewTensor(shape...)
	for i := range x.Data {
		switch r := rng.Float64(); {
		case r < special:
			x.Data[i] = specials[rng.Intn(len(specials))]
		case r < 2*special:
			x.Data[i] = float32(rng.NormFloat64() * 200)
		case r < 2*special+0.1 && i > 0:
			x.Data[i] = x.Data[rng.Intn(i)] // a tie, often with another channel
		default:
			x.Data[i] = float32(rng.NormFloat64() * 4)
		}
	}
	return x
}

// checkSoftmax runs softmaxChannelsInto on x, into a new tensor and in
// place, on every body set, and fails on the first bit that differs from
// softmaxRef's. Any two NaNs count as equal: when a sum meets two NaNs,
// which one it keeps depends on the operand order the compiler picks for
// the add, in the oracle as in the portable body.
func checkSoftmax(t testing.TB, x *Tensor) {
	t.Helper()
	want := x.ZerosLike()
	softmaxRef(want, x)
	forEachKernel(func(kernel string) {
		got := x.ZerosLike()
		softmaxChannelsInto(got, x)
		inPlace := x.Clone()
		softmaxChannelsInto(inPlace, inPlace)
		for name, out := range map[string]*Tensor{"into": got, "in place": inPlace} {
			if i := sameBitsOrNaN(out.Data, want.Data); i >= 0 {
				t.Fatalf("%s, %s, shape %v: element %d = %#x, per-pixel loop %#x (logit %v)", kernel, name,
					x.Shape, i, math.Float32bits(out.Data[i]), math.Float32bits(want.Data[i]), x.Data[i])
			}
		}
	})
}

// TestSoftmaxMatchesPerPixelLoop pins the channel-row softmax, on the AVX
// and the portable bodies, to the per-pixel loop bit for bit: 1-16
// channels, every tail length of the eight-pixel group, planes that span
// several groups and several portable blocks, batches of 1-3, into a new
// tensor and in place, and logits with NaN, ±Inf, ties, ±0, denormals and
// spreads past the vector exp's domain — so groups take the vector path,
// the fallback, or a mix across one plane.
func TestSoftmaxMatchesPerPixelLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(20261018))
	for c := 1; c <= 16; c++ {
		for tail := 0; tail < softmaxGroup; tail++ {
			for _, special := range []float64{0, 0.003, 0.05} {
				hw := softmaxGroup*rng.Intn(20) + tail
				if hw == 0 {
					hw = softmaxGroup
				}
				h := 1
				if hw%2 == 0 && rng.Intn(2) == 0 {
					h = 2
				}
				checkSoftmax(t, softmaxLogits(rng, special, 1+rng.Intn(3), c, h, hw/h))
			}
		}
	}
}

// FuzzSoftmaxMatchesPerPixelLoop fuzzes the channel count, the plane size
// and the share of special logits; both bodies must match the per-pixel
// loop bit for bit.
func FuzzSoftmaxMatchesPerPixelLoop(f *testing.F) {
	f.Add(int64(1), uint8(8), uint16(144), uint8(0))
	f.Add(int64(2), uint8(3), uint16(13), uint8(30))
	f.Add(int64(3), uint8(16), uint16(71), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, c uint8, hw uint16, special uint8) {
		rng := rand.New(rand.NewSource(seed))
		x := softmaxLogits(rng, float64(special)/512, 1+rng.Intn(2), 1+int(c%24), 1, 1+int(hw%300))
		checkSoftmax(t, x)
	})
}

// TestInactiveDropoutReturnsInput pins that a dropout that drops nothing —
// Auto outside training, Off even in training, P = 0 even AlwaysOn —
// returns its input itself instead of a copy.
func TestInactiveDropoutReturnsInput(t *testing.T) {
	x := randomInput([]int{1, 2, 4, 4}, 3)
	off := NewDropout(0.5, 1)
	off.Mode = Off
	zero := NewDropout(0, 1)
	zero.Mode = AlwaysOn
	for name, tc := range map[string]struct {
		d     *Dropout
		train bool
	}{
		"auto inference": {NewDropout(0.5, 1), false},
		"off training":   {off, true},
		"P=0 always on":  {zero, false},
	} {
		AttachScratch(tc.d, NewScratch())
		if out := tc.d.Forward(x, tc.train); out != x {
			t.Errorf("%s: Forward returned a new tensor, want its input", name)
		}
	}
}

// checkArenaFree fails when the arena's free lists hold one buffer twice —
// it would be handed out twice — or hold a tensor still in use.
func checkArenaFree(t *testing.T, sc *Scratch, live ...*Tensor) {
	t.Helper()
	seen := map[*float32]bool{}
	for _, l := range live {
		seen[&l.Data[0]] = true
	}
	for _, list := range sc.free {
		for _, f := range list {
			if seen[&f.Data[0]] {
				t.Fatalf("arena holds a buffer twice, or one still in use (%d floats)", len(f.Data))
			}
			seen[&f.Data[0]] = true
		}
	}
}

// TestArenaForwardsNeverShareBuffers runs twenty arena-backed forwards of
// a trainable and of a frozen MSDnet — dropout inactive, whose layers now
// hand their input through, and reseeded Monte-Carlo — and requires the
// bits of a fresh-allocation forward every time, and an arena that never
// holds a buffer twice or a tensor still in use.
func TestArenaForwardsNeverShareBuffers(t *testing.T) {
	x := randomInput([]int{1, 3, 16, 16}, 12)
	for _, frozen := range []bool{false, true} {
		var plain, arena Layer = miniMSDNet(9), miniMSDNet(9)
		sc := NewScratch()
		AttachScratch(arena, sc)
		if frozen {
			plain, arena = NewFrozenNet(plain), NewFrozenNet(arena)
		}
		for round := 0; round < 20; round++ {
			mode := []DropoutMode{Auto, AlwaysOn}[round%2]
			SetDropoutMode(plain, mode)
			SetDropoutMode(arena, mode)
			ReseedDropout(plain, int64(round))
			ReseedDropout(arena, int64(round))
			want := plain.Forward(x, false)
			got := arena.Forward(x, false)
			if i := sameBitsOrNaN(got.Data, want.Data); i >= 0 {
				t.Fatalf("frozen=%v round %d: element %d = %v, fresh allocation %v", frozen, round, i, got.Data[i], want.Data[i])
			}
			checkArenaFree(t, sc, x, got)
			sc.Put(got)
		}
	}
}
