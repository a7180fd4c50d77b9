package nn

import (
	"math"
	"math/rand"
	"testing"

	"safeland/internal/cpu"
)

// TestConvTapsMatchesPortable runs each vector run kernel the CPU has
// (convRunAVX512, convRunAVX) and the portable Go body, pixel by pixel, on
// the same random runs: 1-33 pixels, which covers every mix of eight-,
// four-, two- and one-pixel blocks, pixel strides 1 and 2, tap counts
// (zero included) and operands over six orders of magnitude with ±0,
// ±Inf, NaN and denormals among them. Every lane of every pixel must come
// out with convTapsGo's bits (any two NaNs count as equal there, as Go
// does not fix which operand a NaN comes from), zero tap counts must leave
// each pixel at its biases, and a guard pixel on each side must stay
// untouched. Where the CPU has both kernels, the AVX-512 one must also
// match the AVX one bit for bit, NaN payloads included: it multiplies and
// adds with the same operands in the same roles.
func TestConvTapsMatchesPortable(t *testing.T) {
	type kernel struct {
		name string
		run  func(out []float32, b *[convLanes]float32, w, x []float32, np, px, nc, ny, nx, xc, xy, xx, wc, wy int)
	}
	var kernels []kernel
	if cpu.Detected.AVX512 {
		kernels = append(kernels, kernel{"avx512", convRunAVX512})
	}
	if cpu.Detected.AVX {
		kernels = append(kernels, kernel{"avx", convRunAVX})
	}
	if len(kernels) == 0 {
		t.Skip("CPU without AVX: convRun runs the portable body only")
	}
	rng := rand.New(rand.NewSource(20261017))
	for trial := 0; trial < 2000; trial++ {
		np, px := 1+trial%33, 1+rng.Intn(2)
		nc, ny, nx := rng.Intn(25), rng.Intn(6), rng.Intn(6)
		xx := 1 + rng.Intn(5)
		xy := nx*xx + rng.Intn(9)
		xc := ny*xy + rng.Intn(17)
		wy := (nx + rng.Intn(3)) * convLanes
		wc := ny*wy + rng.Intn(3)*convLanes
		rate := []float64{0, 0.002, 0.05}[trial%3]
		var x, w []float32
		if nc > 0 && ny > 0 && nx > 0 {
			x = specialInput(rng, rate, (nc-1)*xc+(ny-1)*xy+(nx-1)*xx+(np-1)*px+1).Data
			w = specialInput(rng, rate, (nc-1)*wc+(ny-1)*wy+nx*convLanes).Data
		}
		var b [convLanes]float32
		copy(b[:], specialInput(rng, rate, convLanes).Data)
		// One spare pixel on each side catches a store outside the run.
		guard := specialInput(rng, 0, (np+2)*convLanes).Data
		var first []float32
		for _, k := range kernels {
			got := append([]float32(nil), guard...)
			k.run(got[convLanes:(np+1)*convLanes], &b, w, x, np, px, nc, ny, nx, xc, xy, xx, wc, wy)
			for _, i := range []int{0, np + 1} {
				if d := sameBitsOrNaN(got[i*convLanes:][:convLanes], guard[i*convLanes:][:convLanes]); d >= 0 {
					t.Fatalf("%s, trial %d (np=%d): store outside the run at float %d", k.name, trial, np, i*convLanes+d)
				}
			}
			for p := 0; p < np; p++ {
				acc := b
				if nc > 0 && ny > 0 && nx > 0 {
					convTapsGo(&acc, w, x[p*px:], nc, ny, nx, xc, xy, xx, wc, wy)
				}
				if l := sameBitsOrNaN(got[(p+1)*convLanes:][:convLanes], acc[:]); l >= 0 {
					t.Fatalf("%s, trial %d (np=%d px=%d nc=%d ny=%d nx=%d xc=%d xy=%d xx=%d wc=%d wy=%d): pixel %d lane %d = %v, portable %v",
						k.name, trial, np, px, nc, ny, nx, xc, xy, xx, wc, wy, p, l, got[(p+1)*convLanes+l], acc[l])
				}
			}
			if first == nil {
				first = got
				continue
			}
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(first[i]) {
					t.Fatalf("trial %d (np=%d): float %d is %#x on %s, %#x on %s",
						trial, np, i, math.Float32bits(first[i]), kernels[0].name, math.Float32bits(got[i]), k.name)
				}
			}
		}
	}
}

// TestStoreRunMatchesGo runs storeRun on its AVX body and storeRunGo on
// the same pixel-major results, for every n in 0-32 (eight-pixel blocks
// and a ragged rest) and every live in 1-16, into rows ohw apart with a
// gap after each and a random offset: lane l's first n values must land
// in row l for l < live, and every row at or past live, every cell past n
// and the gaps must keep their bits. The results hold NaNs with payloads
// and -0, which must be copied bit for bit.
func TestStoreRunMatchesGo(t *testing.T) {
	if !cpu.Detected.AVX {
		t.Skip("CPU without AVX: storeRun runs the portable body only")
	}
	defer func(saved cpu.Features) { cpu.Use = saved }(cpu.Use)
	cpu.Use = cpu.Detected
	rng := rand.New(rand.NewSource(20261019))
	specials := []uint32{0x7fc00001, 0xffc12345, 0x7fa00000, 0xff800001, 0x80000000}
	for n := 0; n <= convRunMax; n++ {
		for live := 1; live <= convLanes; live++ {
			run := make([]float32, convRunMax*convLanes)
			for i := range run {
				run[i] = math.Float32frombits(rng.Uint32())
				if rng.Intn(4) == 0 {
					run[i] = math.Float32frombits(specials[rng.Intn(len(specials))])
				}
			}
			off, ohw := rng.Intn(4), n+1+rng.Intn(5)
			before := make([]float32, off+(convLanes+1)*ohw)
			for i := range before {
				before[i] = math.Float32frombits(rng.Uint32())
			}
			want := append([]float32(nil), before...)
			for l := 0; l < live; l++ {
				for i := 0; i < n; i++ {
					want[off+l*ohw+i] = run[i*convLanes+l]
				}
			}
			for _, body := range []struct {
				name  string
				store func(od []float32, ohw int, run []float32, n, live int)
			}{{"storeRun", storeRun}, {"storeRunGo", storeRunGo}} {
				got := append([]float32(nil), before...)
				body.store(got[off:], ohw, run, n, live)
				for i := range got {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("%s, n=%d live=%d ohw=%d: float %d (row %d, cell %d) = %#x, want %#x",
							body.name, n, live, ohw, i, (i-off)/ohw, (i-off)%ohw, math.Float32bits(got[i]), math.Float32bits(want[i]))
					}
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
