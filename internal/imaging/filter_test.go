package imaging

import (
	"math"
	"testing"
)

func TestGaussianKernelNormalized(t *testing.T) {
	for _, sigma := range []float64{0, 0.5, 1, 2, 3.7} {
		k := GaussianKernel(sigma)
		if len(k)%2 != 1 {
			t.Fatalf("sigma=%v: kernel length %d not odd", sigma, len(k))
		}
		var sum float64
		for _, v := range k {
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Errorf("sigma=%v: kernel sums to %v", sigma, sum)
		}
		// Symmetry.
		for i := 0; i < len(k)/2; i++ {
			if k[i] != k[len(k)-1-i] {
				t.Errorf("sigma=%v: kernel asymmetric at %d", sigma, i)
			}
		}
	}
}

func TestGaussianBlurPreservesConstant(t *testing.T) {
	m := NewMap(16, 16)
	m.Fill(0.7)
	out := m.GaussianBlur(2)
	for i, v := range out.Pix {
		if math.Abs(float64(v-0.7)) > 1e-4 {
			t.Fatalf("pixel %d = %v, want 0.7", i, v)
		}
	}
}

func TestGaussianBlurSmoothsImpulse(t *testing.T) {
	m := NewMap(17, 17)
	m.Set(8, 8, 1)
	out := m.GaussianBlur(1.5)
	if out.At(8, 8) >= 1 {
		t.Error("blur did not spread the impulse")
	}
	if out.At(8, 8) <= out.At(0, 0) {
		t.Error("blur center not the maximum")
	}
	// Mass conservation away from borders (impulse far from edge).
	var sum float64
	for _, v := range out.Pix {
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-3 {
		t.Errorf("blur mass = %v, want ≈1", sum)
	}
}

func TestSobelDetectsVerticalEdge(t *testing.T) {
	m := NewMap(16, 16)
	m.FillRect(8, 0, 16, 16, 1) // step edge at x=8
	mag, _ := m.Sobel()
	var edgeCol, flatCol float32
	for y := 2; y < 14; y++ {
		edgeCol += mag.At(7, y) + mag.At(8, y)
		flatCol += mag.At(2, y) + mag.At(13, y)
	}
	if edgeCol <= flatCol {
		t.Errorf("edge response %v not above flat response %v", edgeCol, flatCol)
	}
}

func TestCannyFindsRectangleOutline(t *testing.T) {
	m := NewMap(48, 48)
	m.FillRect(12, 12, 36, 36, 1)
	edges := m.Canny(1.0, 0.1, 0.3)
	if n := edges.CountAbove(0.5); n == 0 {
		t.Fatal("Canny found no edges on a high-contrast rectangle")
	}
	// Interior and far exterior must be edge-free.
	if edges.At(24, 24) != 0 {
		t.Error("edge inside flat interior")
	}
	if edges.At(2, 2) != 0 {
		t.Error("edge in flat exterior")
	}
	// Edge pixels concentrate near the rectangle boundary (within 3 px).
	for y := 0; y < 48; y++ {
		for x := 0; x < 48; x++ {
			if edges.At(x, y) == 0 {
				continue
			}
			nearX := minAbs(x-12, x-36)
			nearY := minAbs(y-12, y-36)
			onBoundary := (nearX <= 3 && y >= 9 && y <= 39) || (nearY <= 3 && x >= 9 && x <= 39)
			if !onBoundary {
				t.Fatalf("stray edge at (%d,%d)", x, y)
			}
		}
	}
}

func minAbs(a, b int) int {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	if a < b {
		return a
	}
	return b
}

func TestCannyFlatImageNoEdges(t *testing.T) {
	m := NewMap(32, 32)
	m.Fill(0.5)
	edges := m.Canny(1.4, 0.05, 0.15)
	if n := edges.CountAbove(0.5); n != 0 {
		t.Errorf("flat image produced %d edge pixels", n)
	}
}

func TestCannyHysteresisConnectsWeakEdges(t *testing.T) {
	// A ramp edge: weak gradient should be kept only when connected to a
	// strong segment. Construct a strong edge fading into a weak one.
	m := NewMap(40, 20)
	for y := 0; y < 20; y++ {
		contrast := float32(1.0)
		if y >= 10 {
			contrast = 0.35 // weaker lower half
		}
		for x := 20; x < 40; x++ {
			m.Set(x, y, contrast)
		}
	}
	edges := m.Canny(1.0, 0.05, 0.5)
	strongFound, weakFound := false, false
	for y := 2; y < 9; y++ {
		if edges.At(19, y) == 1 || edges.At(20, y) == 1 {
			strongFound = true
		}
	}
	for y := 12; y < 18; y++ {
		if edges.At(19, y) == 1 || edges.At(20, y) == 1 {
			weakFound = true
		}
	}
	if !strongFound {
		t.Fatal("strong edge not detected")
	}
	if !weakFound {
		t.Error("hysteresis failed to extend into connected weak edge")
	}
}

func BenchmarkCanny128(b *testing.B) {
	n := NewNoise(3)
	m := NewMap(128, 128)
	for y := 0; y < 128; y++ {
		for x := 0; x < 128; x++ {
			m.Set(x, y, n.FBM(float64(x), float64(y), 0.05, 3))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Canny(1.4, 0.05, 0.2)
	}
}
