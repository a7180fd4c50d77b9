package nn

// convRunAVX is convRun in AVX (conv_amd64.s): the same taps in the same
// order for every pixel, and in each lane a VMULPS product followed by a
// VADDPS, never a fused multiply-add, so its sums are bit-for-bit those of
// convTapsGo. It may run only where cpu.Use.AVX is set.
//
//go:noescape
func convRunAVX(out []float32, b *[convLanes]float32, w, x []float32, np, px, nc, ny, nx, xc, xy, xx, wc, wy int)

// convRunAVX512 is convRunAVX in AVX-512 (conv_amd64.s), eight pixels per
// weight load in ZMM registers, with the same products and sums in the
// same order, so its bits are convTapsGo's too. It may run only where
// cpu.Use.AVX512 is set.
//
//go:noescape
func convRunAVX512(out []float32, b *[convLanes]float32, w, x []float32, np, px, nc, ny, nx, xc, xy, xx, wc, wy int)

// storeRunAVX is storeRunGo for n a multiple of eight, in AVX
// (conv_amd64.s): it moves eight pixels × eight lanes at a time through an
// 8×8 transpose and writes only the rows below live. The caller checks
// the bounds: run must hold n pixels and od the first n cells of live rows
// ohw apart, with 1 <= live <= convLanes. It may run only where cpu.Use.AVX
// is set.
//
//go:noescape
func storeRunAVX(od []float32, ohw int, run []float32, n, live int)

// bnReLUAVX is bnReLUGo in AVX (conv_amd64.s), eight lanes per
// instruction: VSUBPS, VMULPS, VMULPS and VADDPS in BatchNorm's order, then
// VMAXPS against zero. VMAXPS returns its first source only when it is
// greater than the second, so max(v, 0) is exactly v > 0 ? v : 0: NaN, -0
// and negatives give +0. len(res) must be a multiple of convLanes. It may
// run only where cpu.Use.AVX is set.
//
//go:noescape
func bnReLUAVX(res []float32, ep *[epilogueLen]float32)
