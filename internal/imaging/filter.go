package imaging

import "math"

// GaussianKernel returns a normalized 1-D Gaussian kernel with the given
// standard deviation. The radius is ceil(3σ), which captures 99.7% of the
// mass; sigma <= 0 yields the identity kernel.
func GaussianKernel(sigma float64) []float32 {
	if sigma <= 0 {
		return []float32{1}
	}
	r := int(math.Ceil(3 * sigma))
	k := make([]float32, 2*r+1)
	var sum float64
	for i := -r; i <= r; i++ {
		v := math.Exp(-float64(i*i) / (2 * sigma * sigma))
		k[i+r] = float32(v)
		sum += v
	}
	inv := float32(1 / sum)
	for i := range k {
		k[i] *= inv
	}
	return k
}

// GaussianBlur returns the field convolved with a separable Gaussian of the
// given standard deviation, using clamp-to-edge boundary handling.
func (m *Map) GaussianBlur(sigma float64) *Map {
	k := GaussianKernel(sigma)
	return m.convolveSeparable(k)
}

func (m *Map) convolveSeparable(k []float32) *Map {
	r := len(k) / 2
	tmp := NewMap(m.W, m.H)
	out := NewMap(m.W, m.H)
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			var acc float32
			for i := -r; i <= r; i++ {
				acc += m.At(clampInt(x+i, 0, m.W-1), y) * k[i+r]
			}
			tmp.Set(x, y, acc)
		}
	}
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			var acc float32
			for i := -r; i <= r; i++ {
				acc += tmp.At(x, clampInt(y+i, 0, m.H-1)) * k[i+r]
			}
			out.Set(x, y, acc)
		}
	}
	return out
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Sobel computes image gradients with the 3×3 Sobel operator and returns the
// gradient magnitude and the per-pixel gradient direction in radians.
func (m *Map) Sobel() (mag, dir *Map) {
	mag = NewMap(m.W, m.H)
	dir = NewMap(m.W, m.H)
	at := func(x, y int) float32 {
		return m.At(clampInt(x, 0, m.W-1), clampInt(y, 0, m.H-1))
	}
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			gx := -at(x-1, y-1) - 2*at(x-1, y) - at(x-1, y+1) +
				at(x+1, y-1) + 2*at(x+1, y) + at(x+1, y+1)
			gy := -at(x-1, y-1) - 2*at(x, y-1) - at(x+1, y-1) +
				at(x-1, y+1) + 2*at(x, y+1) + at(x+1, y+1)
			mag.Set(x, y, float32(math.Hypot(float64(gx), float64(gy))))
			dir.Set(x, y, float32(math.Atan2(float64(gy), float64(gx))))
		}
	}
	return mag, dir
}

// Canny runs the Canny edge detector: Gaussian smoothing with sigma,
// Sobel gradients, non-maximum suppression, and double-threshold hysteresis
// with low/high magnitude thresholds. The result is a binary map (1 = edge).
func (m *Map) Canny(sigma float64, low, high float32) *Map {
	smooth := m.GaussianBlur(sigma)
	mag, dir := smooth.Sobel()

	// Non-maximum suppression along the quantized gradient direction.
	nms := NewMap(m.W, m.H)
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			v := mag.At(x, y)
			if v == 0 {
				continue
			}
			// Quantize direction to one of four neighbor axes.
			a := dir.At(x, y)
			for a < 0 {
				a += math.Pi
			}
			var dx, dy int
			switch {
			case a < math.Pi/8 || a >= 7*math.Pi/8:
				dx, dy = 1, 0
			case a < 3*math.Pi/8:
				dx, dy = 1, 1
			case a < 5*math.Pi/8:
				dx, dy = 0, 1
			default:
				dx, dy = -1, 1
			}
			n1 := mag.At(clampInt(x+dx, 0, m.W-1), clampInt(y+dy, 0, m.H-1))
			n2 := mag.At(clampInt(x-dx, 0, m.W-1), clampInt(y-dy, 0, m.H-1))
			if v >= n1 && v >= n2 {
				nms.Set(x, y, v)
			}
		}
	}

	// Hysteresis: strong edges seed a BFS that absorbs connected weak edges.
	const (
		unset = 0
		weak  = 1
		edge  = 2
	)
	state := make([]uint8, m.W*m.H)
	var stack []int
	for i, v := range nms.Pix {
		switch {
		case v >= high:
			state[i] = edge
			stack = append(stack, i)
		case v >= low:
			state[i] = weak
		}
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		x, y := i%m.W, i/m.W
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				nx, ny := x+dx, y+dy
				if nx < 0 || ny < 0 || nx >= m.W || ny >= m.H {
					continue
				}
				j := ny*m.W + nx
				if state[j] == weak {
					state[j] = edge
					stack = append(stack, j)
				}
			}
		}
	}
	out := NewMap(m.W, m.H)
	for i, s := range state {
		if s == edge {
			out.Pix[i] = 1
		}
	}
	return out
}
