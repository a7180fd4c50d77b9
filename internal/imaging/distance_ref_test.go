package imaging

import "math"

// refDistanceTransform is the distance transform as it was before the
// column pass became two row-major sweeps: edt1D over every column through
// a strided gather and scatter, then over every row. It stays as the
// oracle the sweeps must match bit for bit, with its own copy of edt1D so
// a later change to the row pass cannot move the oracle with it.
func refDistanceTransform(inside []bool, w, h int) *Map {
	const inf = math.MaxFloat32 / 4
	sq := make([]float32, w*h)
	for i, in := range inside {
		if in {
			sq[i] = 0
		} else {
			sq[i] = inf
		}
	}

	// Column pass then row pass of the 1-D squared-distance transform.
	f := make([]float32, max(w, h))
	d := make([]float32, max(w, h))
	v := make([]int, max(w, h))
	z := make([]float32, max(w, h)+1)

	for x := 0; x < w; x++ {
		for y := 0; y < h; y++ {
			f[y] = sq[y*w+x]
		}
		refEdt1D(f[:h], d[:h], v[:h], z[:h+1])
		for y := 0; y < h; y++ {
			sq[y*w+x] = d[y]
		}
	}
	for y := 0; y < h; y++ {
		copy(f[:w], sq[y*w:(y+1)*w])
		refEdt1D(f[:w], d[:w], v[:w], z[:w+1])
		copy(sq[y*w:(y+1)*w], d[:w])
	}

	out := &Map{W: w, H: h, Pix: sq}
	for i, s := range sq {
		if s >= inf {
			out.Pix[i] = float32(math.Inf(1))
		} else {
			out.Pix[i] = float32(math.Sqrt(float64(s)))
		}
	}
	return out
}

// refEdt1D is edt1D as the oracle was written against it.
func refEdt1D(f, d []float32, v []int, z []float32) {
	n := len(f)
	if n == 0 {
		return
	}
	const inf = math.MaxFloat32
	k := 0
	v[0] = 0
	z[0] = -inf
	z[1] = inf
	for q := 1; q < n; q++ {
		var s float32
		for {
			p := v[k]
			// Intersection of parabolas rooted at q and p.
			s = ((f[q] + float32(q*q)) - (f[p] + float32(p*p))) / float32(2*(q-p))
			if s > z[k] {
				break
			}
			k--
		}
		k++
		v[k] = q
		z[k] = s
		z[k+1] = inf
	}
	k = 0
	for q := 0; q < n; q++ {
		for z[k+1] < float32(q) {
			k++
		}
		dq := float32(q - v[k])
		d[q] = dq*dq + f[v[k]]
	}
}
