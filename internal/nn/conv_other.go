//go:build !amd64

package nn

// convRunAVX exists only on amd64; convRun never calls it elsewhere.
func convRunAVX(out []float32, b *[convLanes]float32, w, x []float32, np, px, nc, ny, nx, xc, xy, xx, wc, wy int) {
	panic("nn: AVX convolution kernel called off amd64")
}

// convRunAVX512 exists only on amd64; convRun never calls it elsewhere.
func convRunAVX512(out []float32, b *[convLanes]float32, w, x []float32, np, px, nc, ny, nx, xc, xy, xx, wc, wy int) {
	panic("nn: AVX-512 convolution kernel called off amd64")
}

// storeRunAVX exists only on amd64; storeRun never calls it elsewhere.
func storeRunAVX(od []float32, ohw int, run []float32, n, live int) {
	panic("nn: AVX store called off amd64")
}

// bnReLUAVX exists only on amd64; bnReLU never calls it elsewhere.
func bnReLUAVX(res []float32, ep *[epilogueLen]float32) {
	panic("nn: AVX epilogue called off amd64")
}
