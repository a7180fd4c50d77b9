//go:build !amd64

package nn

// convTaps is the portable kernel on every GOARCH without an assembly one.
func convTaps(acc *[convLanes]float32, w, x []float32, nc, ny, nx, xc, xy, xx, wc, wy int) {
	convTapsGo(acc, w, x, nc, ny, nx, xc, xy, xx, wc, wy)
}
