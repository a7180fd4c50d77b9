// Package imaging provides the low-level image substrate used across
// safeland: float32 RGB images, UAVid-style dense label maps, scalar field
// maps, drawing primitives, filters (Gaussian, Sobel, Canny), connected
// components, exact Euclidean distance transforms, integral images and
// seeded value-noise textures.
//
// All types use row-major storage and are safe for concurrent reads; writes
// require external synchronization.
package imaging

import "fmt"

// Class is a dense semantic label following the 8-class UAVid taxonomy used
// by the paper (Lyu et al., 2020). Clutter is the zero value: an unlabeled
// pixel is background clutter.
type Class uint8

// The eight UAVid classes. The paper's "busy road" composite is the union of
// Road, StaticCar and MovingCar (Section V-B: "Equation 2 must be verified
// for the three UAVid categories that make up the busy road category").
const (
	Clutter Class = iota // background clutter
	Building
	Road
	StaticCar
	Tree
	LowVegetation
	Humans
	MovingCar

	// NumClasses is the size of the label taxonomy.
	NumClasses = 8
)

// classNames is indexed by Class.
var classNames = [NumClasses]string{
	"clutter", "building", "road", "static-car",
	"tree", "low-vegetation", "humans", "moving-car",
}

// String returns the lowercase UAVid name of the class.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Valid reports whether c is one of the eight UAVid classes.
func (c Class) Valid() bool { return c < NumClasses }

// BusyRoad reports whether the class belongs to the paper's busy-road
// composite category that emergency landing must avoid at all costs.
func (c Class) BusyRoad() bool {
	return c == Road || c == StaticCar || c == MovingCar
}

// BusyRoadClasses lists the three classes composing the busy-road category.
func BusyRoadClasses() []Class { return []Class{Road, StaticCar, MovingCar} }

// RGB is a linear-light color with components in [0, 1].
type RGB struct {
	R, G, B float32
}

// Scale returns the color multiplied component-wise by s.
func (c RGB) Scale(s float32) RGB { return RGB{c.R * s, c.G * s, c.B * s} }

// Lerp linearly interpolates between c (t=0) and o (t=1).
func (c RGB) Lerp(o RGB, t float32) RGB {
	return RGB{
		R: c.R + (o.R-c.R)*t,
		G: c.G + (o.G-c.G)*t,
		B: c.B + (o.B-c.B)*t,
	}
}

// Clamp limits every component to [0, 1].
func (c RGB) Clamp() RGB {
	cl := func(v float32) float32 {
		if v < 0 {
			return 0
		}
		if v > 1 {
			return 1
		}
		return v
	}
	return RGB{cl(c.R), cl(c.G), cl(c.B)}
}

// Luma returns the Rec.601 luminance of the color.
func (c RGB) Luma() float32 { return 0.299*c.R + 0.587*c.G + 0.114*c.B }

// Image is a dense float32 RGB image with interleaved storage.
type Image struct {
	W, H int
	Pix  []RGB // len == W*H, row-major
}

// NewImage allocates a black W×H image.
func NewImage(w, h int) *Image {
	return &Image{W: w, H: h, Pix: make([]RGB, w*h)}
}

// At returns the pixel at (x, y). The caller must ensure bounds.
func (im *Image) At(x, y int) RGB { return im.Pix[y*im.W+x] }

// Set writes the pixel at (x, y). The caller must ensure bounds.
func (im *Image) Set(x, y int, c RGB) { im.Pix[y*im.W+x] = c }

// In reports whether (x, y) lies inside the image bounds.
func (im *Image) In(x, y int) bool { return x >= 0 && y >= 0 && x < im.W && y < im.H }

// Clone returns a deep copy of the image.
func (im *Image) Clone() *Image {
	out := NewImage(im.W, im.H)
	copy(out.Pix, im.Pix)
	return out
}

// Crop returns a copy of the rectangle [x0,x0+w)×[y0,y0+h). It panics if the
// rectangle exceeds the bounds; landing-zone geometry is validated upstream.
func (im *Image) Crop(x0, y0, w, h int) *Image {
	if x0 < 0 || y0 < 0 || x0+w > im.W || y0+h > im.H || w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imaging: crop %dx%d at (%d,%d) out of %dx%d bounds", w, h, x0, y0, im.W, im.H))
	}
	out := NewImage(w, h)
	for y := 0; y < h; y++ {
		copy(out.Pix[y*w:(y+1)*w], im.Pix[(y0+y)*im.W+x0:(y0+y)*im.W+x0+w])
	}
	return out
}

// Luminance returns the per-pixel Rec.601 luminance as a scalar Map.
func (im *Image) Luminance() *Map {
	m := NewMap(im.W, im.H)
	for i, p := range im.Pix {
		m.Pix[i] = p.Luma()
	}
	return m
}

// LabelMap is a dense per-pixel class assignment.
type LabelMap struct {
	W, H int
	Pix  []Class // len == W*H, row-major
}

// NewLabelMap allocates a W×H label map filled with Clutter.
func NewLabelMap(w, h int) *LabelMap {
	return &LabelMap{W: w, H: h, Pix: make([]Class, w*h)}
}

// At returns the class at (x, y). The caller must ensure bounds.
func (lm *LabelMap) At(x, y int) Class { return lm.Pix[y*lm.W+x] }

// Set writes the class at (x, y). The caller must ensure bounds.
func (lm *LabelMap) Set(x, y int, c Class) { lm.Pix[y*lm.W+x] = c }

// In reports whether (x, y) lies inside the map bounds.
func (lm *LabelMap) In(x, y int) bool { return x >= 0 && y >= 0 && x < lm.W && y < lm.H }

// Clone returns a deep copy of the label map.
func (lm *LabelMap) Clone() *LabelMap {
	out := NewLabelMap(lm.W, lm.H)
	copy(out.Pix, lm.Pix)
	return out
}

// Crop returns a copy of the rectangle [x0,x0+w)×[y0,y0+h).
func (lm *LabelMap) Crop(x0, y0, w, h int) *LabelMap {
	if x0 < 0 || y0 < 0 || x0+w > lm.W || y0+h > lm.H || w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imaging: crop %dx%d at (%d,%d) out of %dx%d bounds", w, h, x0, y0, lm.W, lm.H))
	}
	out := NewLabelMap(w, h)
	for y := 0; y < h; y++ {
		copy(out.Pix[y*w:(y+1)*w], lm.Pix[(y0+y)*lm.W+x0:(y0+y)*lm.W+x0+w])
	}
	return out
}

// Counts returns the number of pixels per class.
func (lm *LabelMap) Counts() [NumClasses]int {
	var n [NumClasses]int
	for _, c := range lm.Pix {
		if c < NumClasses {
			n[c]++
		}
	}
	return n
}

// Fractions returns the fraction of pixels per class.
func (lm *LabelMap) Fractions() [NumClasses]float64 {
	counts := lm.Counts()
	var f [NumClasses]float64
	total := float64(lm.W * lm.H)
	if total == 0 {
		return f
	}
	for i, n := range counts {
		f[i] = float64(n) / total
	}
	return f
}

// Expand2x writes the w×h row-major values of src into dst as a 2w×2h
// map, each value over a 2×2 block: the nearest-neighbour doubling the
// segmentation network's trailing upsample computes. dst may begin at src
// (expanding in place): rows and columns go last to first, and each
// value's block lies at or after it, past every value not yet read.
func Expand2x[T any](dst, src []T, w, h int) {
	for y := h - 1; y >= 0; y-- {
		row, top := src[y*w:(y+1)*w], dst[4*y*w:(4*y+2)*w]
		for x := w - 1; x >= 0; x-- {
			top[2*x+1] = row[x]
			top[2*x] = row[x]
		}
		copy(dst[(4*y+2)*w:(4*y+4)*w], top)
	}
}

// Map is a dense scalar field (edge magnitude, distance, height, density...).
type Map struct {
	W, H int
	Pix  []float32 // len == W*H, row-major
}

// NewMap allocates a zeroed W×H scalar field.
func NewMap(w, h int) *Map {
	return &Map{W: w, H: h, Pix: make([]float32, w*h)}
}

// At returns the value at (x, y). The caller must ensure bounds.
func (m *Map) At(x, y int) float32 { return m.Pix[y*m.W+x] }

// Set writes the value at (x, y). The caller must ensure bounds.
func (m *Map) Set(x, y int, v float32) { m.Pix[y*m.W+x] = v }

// In reports whether (x, y) lies inside the map bounds.
func (m *Map) In(x, y int) bool { return x >= 0 && y >= 0 && x < m.W && y < m.H }

// Clone returns a deep copy of the map.
func (m *Map) Clone() *Map {
	out := NewMap(m.W, m.H)
	copy(out.Pix, m.Pix)
	return out
}

// Crop returns a copy of the rectangle [x0,x0+w)×[y0,y0+h).
func (m *Map) Crop(x0, y0, w, h int) *Map {
	if x0 < 0 || y0 < 0 || x0+w > m.W || y0+h > m.H || w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imaging: crop %dx%d at (%d,%d) out of %dx%d bounds", w, h, x0, y0, m.W, m.H))
	}
	out := NewMap(w, h)
	for y := 0; y < h; y++ {
		copy(out.Pix[y*w:(y+1)*w], m.Pix[(y0+y)*m.W+x0:(y0+y)*m.W+x0+w])
	}
	return out
}

// Mean returns the arithmetic mean of the field, 0 for an empty map.
func (m *Map) Mean() float32 {
	if len(m.Pix) == 0 {
		return 0
	}
	var s float64
	for _, v := range m.Pix {
		s += float64(v)
	}
	return float32(s / float64(len(m.Pix)))
}

// Fill sets every pixel to v.
func (m *Map) Fill(v float32) {
	for i := range m.Pix {
		m.Pix[i] = v
	}
}

// Threshold returns a binary map that is 1 where the field is >= t.
func (m *Map) Threshold(t float32) *Map {
	out := NewMap(m.W, m.H)
	for i, v := range m.Pix {
		if v >= t {
			out.Pix[i] = 1
		}
	}
	return out
}

// CountAbove returns the number of pixels with value >= t.
func (m *Map) CountAbove(t float32) int {
	n := 0
	for _, v := range m.Pix {
		if v >= t {
			n++
		}
	}
	return n
}
