package imaging

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// bruteDistance computes the exact Euclidean distance transform in O(n²)
// for cross-checking the Felzenszwalb implementation: each pixel's minimum
// integer squared distance to a mask pixel, with one rounded square root
// (+Inf where the mask is empty).
func bruteDistance(inside []bool, w, h int) []float32 {
	out := make([]float32, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			best := -1
			for sy := 0; sy < h; sy++ {
				for sx := 0; sx < w; sx++ {
					if !inside[sy*w+sx] {
						continue
					}
					dx, dy := x-sx, y-sy
					if d := dx*dx + dy*dy; best < 0 || d < best {
						best = d
					}
				}
			}
			out[y*w+x] = float32(math.Inf(1))
			if best >= 0 {
				out[y*w+x] = float32(math.Sqrt(float64(best)))
			}
		}
	}
	return out
}

// TestDistanceTransformMatchesBruteForce requires the bits of the brute
// force from both entry points, on random masks, 1×N and N×1 strips, full
// masks and single pixels, and the LabelMap entry to call its mask once per
// class value the map holds.
func TestDistanceTransformMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type shape struct {
		w, h    int
		density float64
	}
	var shapes []shape
	for trial := 0; trial < 20; trial++ {
		shapes = append(shapes, shape{3 + rng.Intn(14), 3 + rng.Intn(14), 0.15})
	}
	for _, n := range []int{1, 2, 5, 17, 40} {
		shapes = append(shapes,
			shape{1, n, 0.2}, shape{n, 1, 0.2}, // strips
			shape{1, n, 1}, shape{n, 1, 1}, shape{n, n, 1}, // full masks
			shape{n, n, 0}, // one pixel, placed below
		)
	}
	for si, sh := range shapes {
		w, h := sh.w, sh.h
		lm := NewLabelMap(w, h)
		m := NewMap(w, h)
		inside := make([]bool, w*h)
		for i := range inside {
			inside[i] = rng.Float64() < sh.density
		}
		if sh.density == 0 {
			inside[rng.Intn(w*h)] = true
		}
		for i, in := range inside {
			if in {
				lm.Pix[i], m.Pix[i] = Road, 1
			} else {
				lm.Pix[i] = Class(rng.Intn(2)) // Clutter or Building
			}
		}
		calls := 0
		fromLabels := lm.DistanceTransform(func(c Class) bool { calls++; return c == Road })
		distinct := map[Class]bool{}
		for _, c := range lm.Pix {
			distinct[c] = true
		}
		if calls != len(distinct) {
			t.Fatalf("shape %d (%dx%d): mask called %d times for %d class values", si, w, h, calls, len(distinct))
		}
		want := bruteDistance(inside, w, h)
		for name, got := range map[string]*Map{"LabelMap": fromLabels, "Map": m.DistanceTransform()} {
			for i := range want {
				if math.Float32bits(got.Pix[i]) != math.Float32bits(want[i]) {
					t.Fatalf("shape %d (%dx%d) %s pixel %d: got %v, want %v", si, w, h, name, i, got.Pix[i], want[i])
				}
			}
		}
	}
}

// FuzzDistanceTransformMatchesParent requires every pixel of both
// DistanceTransform entry points, and the square root of
// SquaredDistanceTransform, to carry the bits of refDistanceTransform, the
// transform whose column pass ran edt1D over each column. Sizes run 1–512
// on each side, 1×N strips included; mode picks an empty, single-pixel,
// sparse, dense, full or random-density mask. The Map's values straddle
// the 0.5 threshold (NaN and ±Inf included) and the LabelMap's classes
// include values outside the taxonomy.
func FuzzDistanceTransformMatchesParent(f *testing.F) {
	f.Add(int64(1), uint16(63), uint16(47), uint8(2))   // sparse
	f.Add(int64(2), uint16(0), uint16(299), uint8(3))   // dense 1-wide column
	f.Add(int64(3), uint16(511), uint16(0), uint8(1))   // single pixel in a 512×1 row
	f.Add(int64(4), uint16(191), uint16(191), uint8(0)) // empty
	f.Add(int64(5), uint16(100), uint16(7), uint8(4))   // full
	f.Add(int64(6), uint16(511), uint16(511), uint8(5)) // random density, 512×512
	f.Fuzz(func(t *testing.T, seed int64, w16, h16 uint16, mode uint8) {
		w, h := 1+int(w16)%512, 1+int(h16)%512
		rng := rand.New(rand.NewSource(seed))
		var density float64
		switch mode % 6 {
		case 0, 1: // empty; single pixel, placed below
		case 2:
			density = 0.002
		case 3:
			density = 0.5
		case 4:
			density = 1
		case 5:
			density = rng.Float64()
		}
		inside := make([]bool, w*h)
		for i := range inside {
			inside[i] = rng.Float64() < density
		}
		if mode%6 == 1 {
			inside[rng.Intn(w*h)] = true
		}
		busy := BusyRoadClasses()
		other := []Class{Clutter, Building, Tree, LowVegetation, Humans, NumClasses, 255}
		in := []float32{0.5, 1, float32(math.Inf(1)), math.MaxFloat32}
		out := []float32{math.Nextafter32(0.5, 0), 0, -1, float32(math.Inf(-1)), float32(math.NaN())}
		lm := NewLabelMap(w, h)
		m := NewMap(w, h)
		for i, ok := range inside {
			if ok {
				lm.Pix[i], m.Pix[i] = busy[rng.Intn(len(busy))], in[rng.Intn(len(in))]
			} else {
				lm.Pix[i], m.Pix[i] = other[rng.Intn(len(other))], out[rng.Intn(len(out))]
			}
		}
		want := refDistanceTransform(inside, w, h)
		sq := lm.SquaredDistanceTransform(Class.BusyRoad)
		for name, got := range map[string]*Map{
			"LabelMap":        lm.DistanceTransform(Class.BusyRoad),
			"Map":             m.DistanceTransform(),
			"sqrt of squared": sqrtPix(sq),
		} {
			for i := range want.Pix {
				if math.Float32bits(got.Pix[i]) != math.Float32bits(want.Pix[i]) {
					t.Fatalf("%dx%d mode %d, %s: pixel (%d,%d) = %v, parent %v",
						w, h, mode%6, name, i%w, i/w, got.Pix[i], want.Pix[i])
				}
			}
		}
	})
}

func TestDistanceTransformEmptyMask(t *testing.T) {
	lm := NewLabelMap(5, 5)
	d := lm.DistanceTransform(func(c Class) bool { return c == Road })
	for i, v := range d.Pix {
		if !math.IsInf(float64(v), 1) {
			t.Fatalf("pixel %d = %v, want +Inf for empty mask", i, v)
		}
	}
}

func TestDistanceTransformZeroOnMask(t *testing.T) {
	lm := NewLabelMap(9, 9)
	lm.FillDisk(4, 4, 2, Road)
	d := lm.DistanceTransform(func(c Class) bool { return c == Road })
	for y := 0; y < 9; y++ {
		for x := 0; x < 9; x++ {
			if lm.At(x, y) == Road && d.At(x, y) != 0 {
				t.Fatalf("distance at mask pixel (%d,%d) = %v, want 0", x, y, d.At(x, y))
			}
		}
	}
	// The far corner must be at hypot distance from the disk edge.
	want := math.Hypot(4, 4) - 2
	got := float64(d.At(8, 8))
	if math.Abs(got-want) > 1.5 { // disk rasterization tolerance
		t.Errorf("corner distance = %v, want ≈ %v", got, want)
	}
}

// TestDistanceTransformLipschitz checks the metric property that neighboring
// pixels differ by at most 1 in distance (1-Lipschitz along the grid).
func TestDistanceTransformLipschitz(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, h := 4+rng.Intn(20), 4+rng.Intn(20)
		m := NewMap(w, h)
		placed := false
		for i := range m.Pix {
			if rng.Float64() < 0.1 {
				m.Pix[i] = 1
				placed = true
			}
		}
		if !placed {
			m.Pix[rng.Intn(w*h)] = 1
		}
		d := m.DistanceTransform()
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if x+1 < w {
					if math.Abs(float64(d.At(x+1, y)-d.At(x, y))) > 1+1e-4 {
						return false
					}
				}
				if y+1 < h {
					if math.Abs(float64(d.At(x, y+1)-d.At(x, y))) > 1+1e-4 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestComponentsSeparatesRegions(t *testing.T) {
	lm := NewLabelMap(10, 10)
	lm.FillRect(0, 0, 3, 3, Building)
	lm.FillRect(6, 6, 9, 9, Building)
	labels, n := lm.Components(func(c Class) bool { return c == Building })
	if n != 2 {
		t.Fatalf("components = %d, want 2", n)
	}
	if labels[0] == labels[6*10+6] {
		t.Error("disjoint regions share a label")
	}
	if labels[5*10+5] != -1 {
		t.Error("background pixel labeled")
	}
}

func TestComponentsDiagonalNotConnected(t *testing.T) {
	m := NewMap(2, 2)
	m.Set(0, 0, 1)
	m.Set(1, 1, 1)
	_, n := m.Components()
	if n != 2 {
		t.Fatalf("diagonal pixels should form 2 four-connected components, got %d", n)
	}
}

func TestRegions(t *testing.T) {
	lm := NewLabelMap(10, 10)
	lm.FillRect(2, 3, 5, 7, Tree) // 3 wide, 4 tall = 12 px
	labels, n := lm.Components(func(c Class) bool { return c == Tree })
	regs := Regions(labels, 10, 10, n)
	if len(regs) != 1 {
		t.Fatalf("regions = %d, want 1", len(regs))
	}
	r := regs[0]
	if r.Area != 12 {
		t.Errorf("area = %d, want 12", r.Area)
	}
	if r.MinX != 2 || r.MaxX != 4 || r.MinY != 3 || r.MaxY != 6 {
		t.Errorf("bbox = (%d,%d)-(%d,%d)", r.MinX, r.MinY, r.MaxX, r.MaxY)
	}
	if math.Abs(r.CX-3) > 1e-9 || math.Abs(r.CY-4.5) > 1e-9 {
		t.Errorf("centroid = (%v,%v), want (3,4.5)", r.CX, r.CY)
	}
}

func BenchmarkDistanceTransform256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	lm := NewLabelMap(256, 256)
	for i := range lm.Pix {
		if rng.Float64() < 0.05 {
			lm.Pix[i] = Road
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lm.DistanceTransform(Class.BusyRoad)
	}
}
