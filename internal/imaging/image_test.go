package imaging

import (
	"math"
	"slices"
	"testing"
)

func TestClassString(t *testing.T) {
	tests := []struct {
		c    Class
		want string
	}{
		{Clutter, "clutter"},
		{Building, "building"},
		{Road, "road"},
		{StaticCar, "static-car"},
		{Tree, "tree"},
		{LowVegetation, "low-vegetation"},
		{Humans, "humans"},
		{MovingCar, "moving-car"},
		{Class(42), "class(42)"},
	}
	for _, tt := range tests {
		if got := tt.c.String(); got != tt.want {
			t.Errorf("Class(%d).String() = %q, want %q", tt.c, got, tt.want)
		}
	}
}

func TestClassBusyRoad(t *testing.T) {
	want := map[Class]bool{
		Road: true, StaticCar: true, MovingCar: true,
		Clutter: false, Building: false, Tree: false, LowVegetation: false, Humans: false,
	}
	for c, expect := range want {
		if got := c.BusyRoad(); got != expect {
			t.Errorf("%v.BusyRoad() = %v, want %v", c, got, expect)
		}
	}
	if got := len(BusyRoadClasses()); got != 3 {
		t.Errorf("len(BusyRoadClasses()) = %d, want 3 (paper: road, static car, moving car)", got)
	}
}

func TestClassValid(t *testing.T) {
	for c := Class(0); c < NumClasses; c++ {
		if !c.Valid() {
			t.Errorf("class %v should be valid", c)
		}
	}
	if Class(NumClasses).Valid() {
		t.Error("class NumClasses should be invalid")
	}
}

func TestRGBOps(t *testing.T) {
	c := RGB{0.2, 0.4, 0.6}
	if got := c.Scale(2); got != (RGB{0.4, 0.8, 1.2}) {
		t.Errorf("Scale = %v", got)
	}
	if got := c.Clamp(); got != c {
		t.Errorf("Clamp of in-range color changed it: %v", got)
	}
	if got := (RGB{-1, 0.5, 2}).Clamp(); got != (RGB{0, 0.5, 1}) {
		t.Errorf("Clamp = %v, want {0 0.5 1}", got)
	}
	if got := c.Lerp(c, 0.7); got != c {
		t.Errorf("Lerp between identical colors = %v, want %v", got, c)
	}
	mid := (RGB{0, 0, 0}).Lerp(RGB{1, 1, 1}, 0.5)
	if math.Abs(float64(mid.R-0.5)) > 1e-6 {
		t.Errorf("Lerp midpoint = %v", mid)
	}
	white := RGB{1, 1, 1}
	if got := white.Luma(); math.Abs(float64(got-1)) > 1e-5 {
		t.Errorf("Luma(white) = %v, want 1", got)
	}
}

func TestImageCropAndClone(t *testing.T) {
	im := NewImage(8, 6)
	for y := 0; y < 6; y++ {
		for x := 0; x < 8; x++ {
			im.Set(x, y, RGB{R: float32(x), G: float32(y)})
		}
	}
	cl := im.Clone()
	cl.Set(0, 0, RGB{9, 9, 9})
	if im.At(0, 0) == (RGB{9, 9, 9}) {
		t.Fatal("Clone aliases the original pixel buffer")
	}
	cr := im.Crop(2, 1, 4, 3)
	if cr.W != 4 || cr.H != 3 {
		t.Fatalf("crop dims = %dx%d", cr.W, cr.H)
	}
	if got := cr.At(0, 0); got != (RGB{R: 2, G: 1}) {
		t.Errorf("crop origin pixel = %v, want {2 1 0}", got)
	}
	if got := cr.At(3, 2); got != (RGB{R: 5, G: 3}) {
		t.Errorf("crop far pixel = %v, want {5 3 0}", got)
	}
}

func TestImageCropPanicsOutOfBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-bounds crop")
		}
	}()
	NewImage(4, 4).Crop(2, 2, 4, 4)
}

func TestLabelMapCountsFractions(t *testing.T) {
	lm := NewLabelMap(10, 10)
	lm.FillRect(0, 0, 5, 10, Road) // half road
	counts := lm.Counts()
	if counts[Road] != 50 || counts[Clutter] != 50 {
		t.Fatalf("counts = %v", counts)
	}
	fr := lm.Fractions()
	if math.Abs(fr[Road]-0.5) > 1e-9 {
		t.Errorf("road fraction = %v, want 0.5", fr[Road])
	}
	var sum float64
	for _, f := range fr {
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("fractions sum to %v, want 1", sum)
	}
}

// TestExpand2x checks the nearest-neighbour doubling the segmentation
// network's trailing upsample computes, into a second buffer and in place.
func TestExpand2x(t *testing.T) {
	lm := NewLabelMap(4, 4)
	lm.FillRect(0, 0, 2, 4, Building)
	out := NewLabelMap(8, 8)
	Expand2x(out.Pix, lm.Pix, 4, 4)
	if out.At(0, 0) != Building || out.At(3, 7) != Building || out.At(4, 0) != Clutter || out.At(7, 7) != Clutter {
		t.Error("doubling corrupted labels")
	}
	if counts := out.Counts(); counts[Building] != 32 {
		t.Errorf("building pixels after doubling = %d, want 32", counts[Building])
	}
	inPlace := NewLabelMap(8, 8)
	copy(inPlace.Pix, lm.Pix)
	Expand2x(inPlace.Pix, inPlace.Pix[:16], 4, 4)
	if !slices.Equal(inPlace.Pix, out.Pix) {
		t.Error("in-place doubling differs from doubling into a second buffer")
	}
}

func TestMapBasics(t *testing.T) {
	m := NewMap(3, 3)
	m.Set(1, 1, 5)
	m.Set(2, 2, -1)
	if got := m.Mean(); math.Abs(float64(got)-4.0/9.0) > 1e-6 {
		t.Errorf("Mean = %v", got)
	}
	th := m.Threshold(1)
	if th.At(1, 1) != 1 || th.At(0, 0) != 0 || th.At(2, 2) != 0 {
		t.Error("threshold wrong")
	}
	if got := m.CountAbove(0); got != 8 { // >= 0 includes the seven zeros and the 5
		t.Errorf("CountAbove(0) = %d, want 8", got)
	}
	if got := m.CountAbove(1); got != 1 {
		t.Errorf("CountAbove(1) = %d, want 1", got)
	}
	m.Fill(2)
	if m.At(0, 0) != 2 || m.At(2, 2) != 2 {
		t.Error("Fill failed")
	}
	empty := NewMap(0, 0)
	if empty.Mean() != 0 {
		t.Error("empty Mean should be 0")
	}
}

func TestLuminance(t *testing.T) {
	im := NewImage(1, 1)
	im.Set(0, 0, RGB{1, 1, 1})
	if got := im.Luminance().At(0, 0); math.Abs(float64(got-1)) > 1e-5 {
		t.Errorf("luminance of white = %v, want 1", got)
	}
}
