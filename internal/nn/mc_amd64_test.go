package nn

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"safeland/internal/cpu"
)

// TestExpAVXExhaustive runs every float32 d in [-104, 0] — +0 and all
// 1,120,927,745 values from -0 down to -104 — through the softmax's vector
// exp and requires float32(math.Exp(float64(d))) bit for bit. The sweep is
// split over GOMAXPROCS goroutines. Under the race detector, whose
// instrumented comparison loop is ten times slower, it takes every 61st
// value instead, a fixed stride that still visits every binade.
//
// The vector exp repeats math.Exp's FMA path instruction for instruction,
// so a Go release that changes $GOROOT/src/math/exp_amd64.s fails this
// test: re-derive the kernel from the new file, never loosen the test.
func TestExpAVXExhaustive(t *testing.T) {
	if !cpu.Detected.AVX2 || !cpu.Detected.FMA {
		t.Skip("CPU without AVX2 and FMA: the softmax runs the portable body only")
	}
	const first, last = 0x80000000, 0xc2d00000 // -0 and -104
	step := uint32(1)
	if raceEnabled {
		step = 61
	}
	if got := expOne(0); got != 1 {
		t.Fatalf("exp(+0) = %v, want 1", got)
	}
	workers := runtime.GOMAXPROCS(0)
	span := (uint32(last-first)/uint32(workers) + 1 + step - 1) / step * step
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := uint64(first) + uint64(w)*uint64(span)
		hi := min(lo+uint64(span), uint64(last)+1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			src, dst := make([]float32, 0, 1<<14), make([]float32, 1<<14)
			for b := lo; b < hi; b += uint64(step) {
				src = append(src, math.Float32frombits(uint32(b)))
				if len(src) == cap(src) || b+uint64(step) >= hi {
					for len(src)%4 != 0 {
						src = append(src, src[0])
					}
					if i := expMismatch(dst, src); i >= 0 {
						d := src[i]
						t.Errorf("exp(%v) (%#x): vector %#x, math.Exp %#x", d, math.Float32bits(d),
							math.Float32bits(expOne(d)), math.Float32bits(float32(math.Exp(float64(d)))))
						return
					}
					src = src[:0]
				}
			}
		}()
	}
	wg.Wait()
}

// expOne runs one value through expAVX.
func expOne(d float32) float32 {
	src, dst := []float32{d, d, d, d}, make([]float32, 4)
	expAVX(dst, src)
	return dst[0]
}

// expMismatch runs src through expAVX into dst and returns the first
// index whose result differs in bits from float32(math.Exp(float64(d))),
// or -1.
func expMismatch(dst, src []float32) int {
	dst = dst[:len(src)]
	expAVX(dst, src)
	for i, d := range src {
		if math.Float32bits(dst[i]) != math.Float32bits(float32(math.Exp(float64(d)))) {
			return i
		}
	}
	return -1
}

// TestApplyKeepAVXMatchesGo runs the AVX2 dropout mask and the Go loop on
// every length from 0 to 67 — whole eight-unit vectors and every scalar
// tail — over units with ±0, NaN, ±Inf and denormals, both keep values and
// several scales: every unit must come out bit for bit the same, and
// nothing past the last unit may be written.
func TestApplyKeepAVXMatchesGo(t *testing.T) {
	if !cpu.Detected.AVX2 {
		t.Skip("CPU without AVX2: the dropout mask runs the portable body only")
	}
	rng := rand.New(rand.NewSource(67))
	x := specialInput(rng, 0.3, 1, 1, 1, 68)
	for n := 0; n <= 67; n++ {
		for _, scale := range []float32{2, float32(1 / (1 - 0.3)), 1, math.MaxFloat32} {
			keep := make([]byte, n)
			for i := range keep {
				keep[i] = byte(rng.Intn(2))
			}
			want := make([]float32, n+1)
			got := make([]float32, n+1)
			want[n], got[n] = 7, 7
			applyKeepGo(want[:n], x.Data[:n], keep, scale)
			applyKeepAVX(got[:n], x.Data[:n], keep, scale)
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("n=%d scale=%v: unit %d (%v, keep %v) = %#x, Go loop %#x", n, scale, i, x.Data[i],
						i < n && keep[i] == 1, math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
		}
	}
}

// TestSoftmaxAVXDomain pins the vector exp's domain check: a group of
// eight pixels whose d = v - m all lie in [-104, 0] is computed — -104
// itself included — and a group with one lane whose d is NaN, +Inf's
// Inf - Inf, -Inf or -104.00001 is refused before anything of it is
// written, and then computed by the portable body to the per-pixel loop's
// bits.
func TestSoftmaxAVXDomain(t *testing.T) {
	if !cpu.Detected.AVX2 || !cpu.Detected.FMA {
		t.Skip("CPU without AVX2 and FMA: the softmax runs the portable body only")
	}
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for _, tc := range []struct {
		d      float32
		inside bool
	}{
		{-104, true}, {-103.99999, true}, {float32(math.Copysign(0, -1)), true},
		{math.Nextafter32(-104, -200), false}, {-104.00001, false},
		{nan, false}, {inf, false}, {-inf, false},
	} {
		for lane := 0; lane < softmaxGroup; lane++ {
			x := NewTensor(1, 2, 1, softmaxGroup)
			for p := 0; p < softmaxGroup; p++ {
				x.Data[softmaxGroup+p] = -1
			}
			x.Data[softmaxGroup+lane] = tc.d
			out := x.ZerosLike()
			out.Fill(7)
			done := softmaxAVX(out.Data, x.Data, softmaxGroup, 2, softmaxGroup)
			if tc.inside != (done == softmaxGroup) {
				t.Fatalf("d=%v in lane %d: softmaxAVX computed %d pixels", tc.d, lane, done)
			}
			if !tc.inside {
				for i, v := range out.Data {
					if v != 7 {
						t.Fatalf("d=%v in lane %d: refused group written at %d", tc.d, lane, i)
					}
				}
			}
			checkSoftmax(t, x)
		}
	}
}
