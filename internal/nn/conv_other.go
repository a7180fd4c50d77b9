//go:build !amd64

package nn

// convRunAVX exists only on amd64; convRun never calls it elsewhere.
func convRunAVX(out []float32, b *[convLanes]float32, w, x []float32, np, px, nc, ny, nx, xc, xy, xx, wc, wy int) {
	panic("nn: AVX convolution kernel called off amd64")
}

// bnReLUAVX exists only on amd64; bnReLU never calls it elsewhere.
func bnReLUAVX(res []float32, ep *[epilogueLen]float32) {
	panic("nn: AVX epilogue called off amd64")
}
