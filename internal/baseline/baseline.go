// Package baseline implements the vision-based landing-zone selection
// methods the paper's related-work section surveys, as comparison points
// for the MSDnet+monitor pipeline:
//
//   - edge-density selection on Canny maps (Mejias & Fitzgerald 2013);
//   - tile classification with a shallow learned classifier on handcrafted
//     features (Mejias 2014, Lai 2016, Funahashi 2018);
//   - flatness-based selection on a depth/height field (Marcu 2018 SafeUAV,
//     Mittal 2019).
//
// The paper's Section II-B.4 criticism — "while some studies consider flat
// areas, such as roads, as safe for landing, others specifically try to
// avoid transportation infrastructures" — becomes measurable with these:
// flat/low-edge selectors systematically pick roads and parking lots.
package baseline

import (
	"math"

	"safeland/internal/imaging"
	"safeland/internal/urban"
)

// Zone is a selected square landing window in pixel coordinates.
type Zone struct {
	X0, Y0, Size int
	// Score is selector-specific (lower = preferred).
	Score float64
}

// Selector picks a landing zone from a scene.
type Selector interface {
	Name() string
	// Select returns the preferred zone of the given pixel size.
	Select(scene *urban.Scene, zonePx int) (Zone, bool)
}

// Canny selects the window with the lowest edge density, after Mejias &
// Fitzgerald (2013): homogeneous image regions are assumed landable.
type Canny struct {
	Sigma     float64
	Low, High float32
}

// NewCanny returns the detector with the thresholds used in the benchmarks.
func NewCanny() *Canny { return &Canny{Sigma: 1.2, Low: 0.06, High: 0.18} }

// Name implements Selector.
func (c *Canny) Name() string { return "canny-edge-density" }

// Select implements Selector.
func (c *Canny) Select(scene *urban.Scene, zonePx int) (Zone, bool) {
	edges := scene.Image.Luminance().Canny(c.Sigma, c.Low, c.High)
	return minMeanWindow(edges, zonePx, 2)
}

// Flatness selects the window with the lowest height variance and mean,
// standing in for the depth-based methods (SafeUAV): "select a flat surface
// for safe landing". It reads the scene's height field, which simulates the
// output of monocular depth estimation.
type Flatness struct{}

// Name implements Selector.
func (Flatness) Name() string { return "flatness" }

// Select implements Selector.
func (Flatness) Select(scene *urban.Scene, zonePx int) (Zone, bool) {
	h := scene.Height
	sq := imaging.NewMap(h.W, h.H)
	for i, v := range h.Pix {
		sq.Pix[i] = v * v
	}
	meanIt := imaging.NewIntegral(h)
	sqIt := imaging.NewIntegral(sq)
	best := math.Inf(1)
	var bz Zone
	found := false
	for y := 0; y+zonePx <= h.H; y += 2 {
		for x := 0; x+zonePx <= h.W; x += 2 {
			m := meanIt.RectMean(x, y, x+zonePx, y+zonePx)
			v := sqIt.RectMean(x, y, x+zonePx, y+zonePx) - m*m
			score := v + 0.05*m // flat and low
			if score < best {
				best = score
				bz = Zone{X0: x, Y0: y, Size: zonePx, Score: score}
				found = true
			}
		}
	}
	return bz, found
}

// FTCenter "selects" the zone under the current position — the scene
// center — modeling uncontrolled flight termination, which does not select
// at all. It is the paper's fault-tolerant floor (Figure 1: a monitor
// refusal escalates to the FT maneuver) and the degraded-mode fallback the
// serving stack answers with when perception is faulted: pure geometry, no
// model in the loop, so it cannot itself fail under perception faults.
type FTCenter struct{}

// Name implements Selector.
func (FTCenter) Name() string { return "ft-center" }

// Select implements Selector.
func (FTCenter) Select(scene *urban.Scene, zonePx int) (Zone, bool) {
	x0 := (scene.Labels.W - zonePx) / 2
	y0 := (scene.Labels.H - zonePx) / 2
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	return Zone{X0: x0, Y0: y0, Size: zonePx}, true
}

// minMeanWindow scans zonePx windows with the given stride and returns the
// one with the smallest mean value of m.
func minMeanWindow(m *imaging.Map, zonePx, stride int) (Zone, bool) {
	if zonePx <= 0 || zonePx > m.W || zonePx > m.H {
		return Zone{}, false
	}
	it := imaging.NewIntegral(m)
	best := math.Inf(1)
	var bz Zone
	found := false
	for y := 0; y+zonePx <= m.H; y += stride {
		for x := 0; x+zonePx <= m.W; x += stride {
			mean := it.RectMean(x, y, x+zonePx, y+zonePx)
			if mean < best {
				best = mean
				bz = Zone{X0: x, Y0: y, Size: zonePx, Score: mean}
				found = true
			}
		}
	}
	return bz, found
}
