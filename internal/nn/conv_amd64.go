package nn

// convTaps is convTapsGo in SSE (conv_amd64.s): the same taps in the same
// order, and in each lane a MULPS product followed by an ADDPS, never a
// fused multiply-add, so its sums are bit-for-bit those of convTapsGo. SSE
// is part of the amd64 baseline, so there is no CPU-feature check.
//
//go:noescape
func convTaps(acc *[convLanes]float32, w, x []float32, nc, ny, nx, xc, xy, xx, wc, wy int)
