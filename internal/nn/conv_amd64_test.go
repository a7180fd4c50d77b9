package nn

import (
	"math"
	"math/rand"
	"testing"

	"safeland/internal/cpu"
)

// TestConvTapsMatchesPortable runs the AVX run kernel and the portable Go
// body, pixel by pixel, on the same random run lengths (1-9 pixels: every
// mix of four-pixel blocks and a one-to-three-pixel tail), pixel strides 1
// and 2, tap counts (zero included) and operands spread over six orders of
// magnitude, so rounding differences would surface: every lane of every
// pixel must come out bit-for-bit the same, and zero tap counts must leave
// each pixel at its biases.
func TestConvTapsMatchesPortable(t *testing.T) {
	if !cpu.Detected.AVX {
		t.Skip("CPU without AVX: convRun runs the portable body only")
	}
	rng := rand.New(rand.NewSource(20261017))
	value := func() float32 {
		return float32(rng.NormFloat64() * math.Pow(10, 6*rng.Float64()-3))
	}
	for trial := 0; trial < 1000; trial++ {
		np, px := 1+rng.Intn(9), 1+rng.Intn(2)
		nc, ny, nx := rng.Intn(25), rng.Intn(6), rng.Intn(6)
		xx := 1 + rng.Intn(5)
		xy := nx*xx + rng.Intn(9)
		xc := ny*xy + rng.Intn(17)
		wy := (nx + rng.Intn(3)) * convLanes
		wc := ny*wy + rng.Intn(3)*convLanes
		var x, w []float32
		if nc > 0 && ny > 0 && nx > 0 {
			x = make([]float32, (nc-1)*xc+(ny-1)*xy+(nx-1)*xx+(np-1)*px+1)
			w = make([]float32, (nc-1)*wc+(ny-1)*wy+nx*convLanes)
		}
		for i := range x {
			x[i] = value()
		}
		for i := range w {
			w[i] = value()
		}
		var b [convLanes]float32
		for l := range b {
			b[l] = value()
		}
		// One spare pixel on each side catches a store outside the run.
		avx := make([]float32, (np+2)*convLanes)
		for i := range avx {
			avx[i] = value()
		}
		guard := append([]float32(nil), avx...)
		convRunAVX(avx[convLanes:(np+1)*convLanes], &b, w, x, np, px, nc, ny, nx, xc, xy, xx, wc, wy)
		for _, i := range []int{0, np + 1} {
			for l := 0; l < convLanes; l++ {
				if j := i*convLanes + l; math.Float32bits(avx[j]) != math.Float32bits(guard[j]) {
					t.Fatalf("trial %d (np=%d): store outside the run at float %d", trial, np, j)
				}
			}
		}
		for p := 0; p < np; p++ {
			acc := b
			if nc > 0 && ny > 0 && nx > 0 {
				convTapsGo(&acc, w, x[p*px:], nc, ny, nx, xc, xy, xx, wc, wy)
			}
			for l, want := range acc {
				if got := avx[(p+1)*convLanes+l]; math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("trial %d (np=%d px=%d nc=%d ny=%d nx=%d xc=%d xy=%d xx=%d wc=%d wy=%d): pixel %d lane %d = %v, portable %v",
						trial, np, px, nc, ny, nx, xc, xy, xx, wc, wy, p, l, got, want)
				}
			}
		}
	}
}

// TestBNReLUAVXMatchesGo runs the AVX epilogue and the portable one on the
// same pixels and constants, lane by lane, and checks both against
// BatchNorm2D's expression followed by ReLU's v > 0 ? v : 0: values over
// six orders of magnitude, ±0, ±Inf, NaN and denormals, γ of either sign,
// β of -0, and pixels equal to their lane's mean, whose normalised value is
// ±0 — the cases where max(v, 0) with its operands swapped would keep -0 or
// NaN. Guard pixels either side catch stray stores.
func TestBNReLUAVXMatchesGo(t *testing.T) {
	if !cpu.Detected.AVX {
		t.Skip("CPU without AVX: bnReLU runs the portable body only")
	}
	rng := rand.New(rand.NewSource(20261018))
	for trial := 0; trial < 200; trial++ {
		var ep [epilogueLen]float32
		copy(ep[:], specialInput(rng, 0.05, epilogueLen).Data)
		for l := 0; l < convLanes; l++ {
			if rng.Intn(3) == 0 {
				ep[3*convLanes+l] = float32(math.Copysign(0, -1))
			}
		}
		np := rng.Intn(convRunMax + 1)
		in := specialInput(rng, 0.05, (np+2)*convLanes).Data
		for p := 1; p <= np; p++ {
			for l := 0; l < convLanes; l++ {
				if rng.Intn(8) == 0 {
					in[p*convLanes+l] = ep[l]
				}
			}
		}
		avx := append([]float32(nil), in...)
		bnReLUAVX(avx[convLanes:(np+1)*convLanes], &ep)
		port := append([]float32(nil), in...)
		bnReLUGo(port[convLanes:(np+1)*convLanes], &ep)
		for i, v := range in {
			want := v
			if p := i / convLanes; p >= 1 && p <= np {
				l := i % convLanes
				g, inv, b := ep[convLanes+l], ep[2*convLanes+l], ep[3*convLanes+l]
				want = float32(g*(v-ep[l])*inv) + b
				if !(want > 0) {
					want = 0
				}
			}
			if math.Float32bits(avx[i]) != math.Float32bits(want) && !(avx[i] != avx[i] && want != want) {
				t.Fatalf("trial %d, float %d (of %d pixels): AVX %v (%#x), reference %v (%#x)",
					trial, i, np, avx[i], math.Float32bits(avx[i]), want, math.Float32bits(want))
			}
			if math.Float32bits(port[i]) != math.Float32bits(want) && !(port[i] != port[i] && want != want) {
				t.Fatalf("trial %d, float %d (of %d pixels): portable %v (%#x), reference %v (%#x)",
					trial, i, np, port[i], math.Float32bits(port[i]), want, math.Float32bits(want))
			}
		}
	}
}
