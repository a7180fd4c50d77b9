package imaging

import "math"

// far is a squared distance with no mask pixel in reach: finite, so the
// row pass's parabola intersections stay finite, and so large that adding
// any squared pixel distance (or 1) rounds back to it.
const far = math.MaxFloat32 / 4

// DistanceTransform computes the exact Euclidean distance from every pixel
// to the nearest pixel where mask holds: the square root of
// SquaredDistanceTransform, so +Inf everywhere if no pixel satisfies the
// mask.
func (lm *LabelMap) DistanceTransform(mask func(Class) bool) *Map {
	return sqrtPix(lm.SquaredDistanceTransform(mask))
}

// SquaredDistanceTransform computes the exact squared Euclidean distance
// from every pixel to the nearest pixel where mask holds (O(W·H)), or +Inf
// everywhere if no pixel satisfies the mask. mask is called once for each
// class value the map holds.
//
// Landing-zone selection takes each candidate zone's minimum squared
// distance to a busy-road pixel, then one square root.
func (lm *LabelMap) SquaredDistanceTransform(mask func(Class) bool) *Map {
	var known, in [256]bool
	sq := NewMap(lm.W, lm.H)
	for i, c := range lm.Pix {
		if !known[c] {
			known[c], in[c] = true, mask(c)
		}
		if !in[c] {
			sq.Pix[i] = far
		}
	}
	squaredDistances(sq)
	return sq
}

// DistanceTransform computes the exact Euclidean distance from every pixel
// to the nearest pixel with value >= 0.5 (treating the map as binary), +Inf
// everywhere if there is none.
func (m *Map) DistanceTransform() *Map {
	sq := NewMap(m.W, m.H)
	for i, v := range m.Pix {
		if !(v >= 0.5) {
			sq.Pix[i] = far
		}
	}
	squaredDistances(sq)
	return sqrtPix(sq)
}

// squaredDistances turns sq, 0 on the mask and far elsewhere, into each
// pixel's squared Euclidean distance to the nearest mask pixel, or +Inf
// everywhere when there is none: the Felzenszwalb–Huttenlocher transform,
// a pass down the columns and then edt1D's lower envelope along each row.
//
// The column pass is two row-major sweeps. Sweeping down, each pixel takes
// its distance in rows to the nearest mask pixel at or above it in its
// column (far where there is none, since far + 1 rounds to far); sweeping
// up, the nearer of that and the nearest at or below, squared. On a column
// of 0s and fars that is bit for bit what edt1D computes while the squared
// row indices are exact in float32 (columns under 4096 rows): two
// zero-rooted parabolas meet at the exact midpoint, one rooted at far
// meets any zero-rooted one beyond every row, and every square of a row
// distance is the same float32 product.
func squaredDistances(sq *Map) {
	w, h := sq.W, sq.H
	for y := 1; y < h; y++ {
		above, row := sq.Pix[(y-1)*w:y*w], sq.Pix[y*w:(y+1)*w]
		for x, d := range row {
			row[x] = min(d, above[x]+1)
		}
	}
	// below holds, per column, the distance in rows from the row under the
	// current one to the nearest mask pixel at or below it.
	below := make([]float32, w)
	for x := range below {
		below[x] = far
	}
	for y := h - 1; y >= 0; y-- {
		row := sq.Pix[y*w : (y+1)*w]
		for x, d := range row {
			d = min(d, below[x]+1)
			below[x] = d
			if d < far {
				row[x] = d * d
			}
		}
	}
	// After the sweeps below[x] is column x's distance from row 0 to its
	// nearest mask pixel: far in every column means an empty mask.
	empty := true
	for _, b := range below {
		if b < far {
			empty = false
			break
		}
	}
	if empty {
		for i := range sq.Pix {
			sq.Pix[i] = float32(math.Inf(1))
		}
		return
	}
	d := make([]float32, w)
	v := make([]int, w)
	z := make([]float32, w+1)
	for y := 0; y < h; y++ {
		row := sq.Pix[y*w : (y+1)*w]
		edt1D(row, d, v, z)
		copy(row, d)
	}
}

// sqrtPix replaces each squared distance of m by its square root.
func sqrtPix(m *Map) *Map {
	for i, s := range m.Pix {
		m.Pix[i] = float32(math.Sqrt(float64(s)))
	}
	return m
}

// edt1D computes the 1-D squared Euclidean distance transform of sampled
// function f into d, using scratch buffers v (parabola locations) and z
// (envelope boundaries).
func edt1D(f, d []float32, v []int, z []float32) {
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

// Components labels the 4-connected components of pixels where pred holds.
// It returns a label per pixel (-1 for pixels not matching pred, otherwise a
// component id in [0, n)) and the component count n.
func (lm *LabelMap) Components(pred func(Class) bool) (labels []int32, n int) {
	return components(lm.W, lm.H, func(i int) bool { return pred(lm.Pix[i]) })
}

// Components labels the 4-connected components of pixels with value >= 0.5.
func (m *Map) Components() (labels []int32, n int) {
	return components(m.W, m.H, func(i int) bool { return m.Pix[i] >= 0.5 })
}

func components(w, h int, in func(int) bool) ([]int32, int) {
	labels := make([]int32, w*h)
	for i := range labels {
		labels[i] = -1
	}
	var queue []int
	next := int32(0)
	for start := 0; start < w*h; start++ {
		if !in(start) || labels[start] >= 0 {
			continue
		}
		labels[start] = next
		queue = append(queue[:0], start)
		for len(queue) > 0 {
			i := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			x, y := i%w, i/w
			for _, nb := range [4][2]int{{x - 1, y}, {x + 1, y}, {x, y - 1}, {x, y + 1}} {
				nx, ny := nb[0], nb[1]
				if nx < 0 || ny < 0 || nx >= w || ny >= h {
					continue
				}
				j := ny*w + nx
				if in(j) && labels[j] < 0 {
					labels[j] = next
					queue = append(queue, j)
				}
			}
		}
		next++
	}
	return labels, int(next)
}

// Region summarizes one connected component.
type Region struct {
	ID                     int
	Area                   int
	MinX, MinY, MaxX, MaxY int     // inclusive bounding box
	CX, CY                 float64 // centroid
}

// Regions computes per-component statistics from a label array produced by
// Components.
func Regions(labels []int32, w, h, n int) []Region {
	regs := make([]Region, n)
	for i := range regs {
		regs[i] = Region{ID: i, MinX: w, MinY: h, MaxX: -1, MaxY: -1}
	}
	for i, l := range labels {
		if l < 0 {
			continue
		}
		r := &regs[l]
		x, y := i%w, i/w
		r.Area++
		r.CX += float64(x)
		r.CY += float64(y)
		if x < r.MinX {
			r.MinX = x
		}
		if y < r.MinY {
			r.MinY = y
		}
		if x > r.MaxX {
			r.MaxX = x
		}
		if y > r.MaxY {
			r.MaxY = y
		}
	}
	for i := range regs {
		if regs[i].Area > 0 {
			regs[i].CX /= float64(regs[i].Area)
			regs[i].CY /= float64(regs[i].Area)
		}
	}
	return regs
}
