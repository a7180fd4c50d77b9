package nn

import (
	"math"
	"math/rand"
	"testing"
)

// TestConvTapsMatchesPortable runs the SSE kernel and the portable Go body
// on the same random tap counts, strides and operands, spread over many
// orders of magnitude so rounding differences would surface: every
// accumulator lane must come out bit-for-bit the same, and zero tap counts
// must leave the accumulators untouched.
func TestConvTapsMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	value := func() float32 {
		return float32(rng.NormFloat64() * math.Pow(10, 6*rng.Float64()-3))
	}
	for trial := 0; trial < 500; trial++ {
		nc, ny, nx := rng.Intn(25), rng.Intn(6), rng.Intn(6)
		xx := 1 + rng.Intn(5)
		xy := nx*xx + rng.Intn(9)
		xc := ny*xy + rng.Intn(17)
		wy := (nx + rng.Intn(3)) * convLanes
		wc := ny*wy + rng.Intn(3)*convLanes
		var x, w []float32
		if nc > 0 && ny > 0 && nx > 0 {
			x = make([]float32, (nc-1)*xc+(ny-1)*xy+(nx-1)*xx+1)
			w = make([]float32, (nc-1)*wc+(ny-1)*wy+nx*convLanes)
		}
		for i := range x {
			x[i] = value()
		}
		for i := range w {
			w[i] = value()
		}
		var asm, goBody [convLanes]float32
		for l := range asm {
			asm[l] = value()
		}
		goBody = asm
		convTaps(&asm, w, x, nc, ny, nx, xc, xy, xx, wc, wy)
		convTapsGo(&goBody, w, x, nc, ny, nx, xc, xy, xx, wc, wy)
		for l := range asm {
			if math.Float32bits(asm[l]) != math.Float32bits(goBody[l]) {
				t.Fatalf("trial %d (nc=%d ny=%d nx=%d xc=%d xy=%d xx=%d wc=%d wy=%d): lane %d = %v, portable %v",
					trial, nc, ny, nx, xc, xy, xx, wc, wy, l, asm[l], goBody[l])
			}
		}
	}
}
