// Package core implements the paper's Emergency Landing function (Section
// V): landing-zone selection from semantic segmentation with a
// parachute-drift road buffer, the Computer/Monitor safety pattern with a
// Bayesian runtime monitor, and the Decision Module that confirms, retries
// or aborts (Figure 2). It also self-assesses the implementation against
// the paper's Table III/IV criteria to produce a SORA mitigation claim.
package core

import (
	"fmt"
	"math"
	"sort"

	"safeland/internal/imaging"
)

// ZoneConfig controls candidate landing-zone generation.
type ZoneConfig struct {
	// ZoneSizeM is the side of the square landing zone (m): the vehicle
	// span plus a touchdown dispersion margin.
	ZoneSizeM float64
	// BufferM is the required distance (m) between every zone pixel and the
	// nearest predicted busy-road pixel. Table III (low integrity): "the
	// buffer from roads must take into account the typical parachute drift
	// in nominal conditions".
	BufferM float64
	// MinSafeFraction is the minimum fraction of zone pixels predicted as
	// landable surface (low vegetation or bare clutter).
	MinSafeFraction float64
	// Stride is the candidate scan stride in pixels (0 = half zone side).
	Stride int
	// MaxCandidates caps the ranked candidate list (0 = no cap).
	MaxCandidates int
	// BorderMarginPx excludes zones touching the image border, where
	// convolution padding degrades both prediction and uncertainty
	// calibration (0 = a quarter zone, negative = no margin).
	BorderMarginPx int
	// HomeX, HomeY bias the ranking toward zones near this position
	// (meters); both zero disables the bias.
	HomeX, HomeY float64
}

// DefaultZoneConfig sizes the zone for the MEDI DELIVERY vehicle: a 12 m
// zone (1 m span + GPS-free visual-servoing dispersion) and a 15 m road
// buffer covering the nominal parachute drift from the 35 m deployment
// altitude in moderate wind (EL keeps trajectory control, so it descends
// before opening the canopy; only Flight Termination deploys from cruise
// altitude).
func DefaultZoneConfig() ZoneConfig {
	return ZoneConfig{
		ZoneSizeM:       12,
		BufferM:         15,
		MinSafeFraction: 0.85,
		MaxCandidates:   16,
	}
}

// landable reports whether a predicted class is acceptable ground to touch
// down on: low vegetation (the literature's preferred surface) or bare
// clutter (pavement, soil). Buildings, trees, water-colored clutter and the
// busy-road composite are not.
func landable(c imaging.Class) bool {
	return c == imaging.LowVegetation || c == imaging.Clutter
}

// Candidate is one scored landing-zone proposal in pixel coordinates.
type Candidate struct {
	X0, Y0, SizePx int
	// MinRoadDistM is the smallest distance (m) from any zone pixel to a
	// predicted busy-road pixel.
	MinRoadDistM float64
	// SafeFraction is the fraction of zone pixels with landable predicted
	// classes.
	SafeFraction float64
	// Score ranks candidates (higher is better).
	Score float64
}

// CenterM returns the candidate center in meters.
func (c Candidate) CenterM(mpp float64) (x, y float64) {
	return (float64(c.X0) + float64(c.SizePx)/2) * mpp, (float64(c.Y0) + float64(c.SizePx)/2) * mpp
}

// CropRect returns the rectangle the monitor actually verifies for this
// candidate inside an imgW×imgH frame: the zone size rounded up to even
// (the downsampling model requires even inputs) with the origin shifted
// left/up when the rounding would cross the frame edge. The pipeline and
// the experiments share this so "the verified crop" is one definition.
func (c Candidate) CropRect(imgW, imgH int) (x0, y0, size int) {
	return evenAlign(c.X0, imgW, c.SizePx), evenAlign(c.Y0, imgH, c.SizePx), evenSize(c.SizePx)
}

// Candidates generates ranked landing-zone proposals from a predicted
// segmentation. This is the "zone selection" stage of Figure 2: it runs on
// the deterministic model output; the monitor later verifies the winners.
func Candidates(pred *imaging.LabelMap, mpp float64, cfg ZoneConfig) []Candidate {
	return newZoneField(pred, mpp).candidates(cfg)
}

// ladder proposes candidates under the configured drift buffer, relaxing it
// stepwise (never below a quarter zone) until a rung yields a candidate
// that keep, when non-nil, retains. It returns those candidates and the
// buffer that produced them. The buffer-independent zone field, and its
// scan of the windows, are computed once for all rungs.
func ladder(pred *imaging.LabelMap, mpp float64, cfg ZoneConfig, keep func([]Candidate) []Candidate) ([]Candidate, float64) {
	field := newZoneField(pred, mpp)
	zones := cfg
	var cands []Candidate
	for _, scale := range []float64{1, 0.66, 0.4, 0.2} {
		zones.BufferM = cfg.BufferM * scale
		if zones.BufferM < zones.ZoneSizeM/4 {
			zones.BufferM = zones.ZoneSizeM / 4
		}
		cands = field.candidates(zones)
		if keep != nil {
			cands = keep(cands)
		}
		if len(cands) > 0 {
			break
		}
	}
	return cands, zones.BufferM
}

// zoneField is the part of candidate generation that does not depend on
// the road buffer: the summed-area table of landable pixels, each pixel's
// squared distance to the nearest predicted busy-road pixel, and the scan
// of the zone windows, kept for the key it was made for. Each ladder rung
// only filters and scores the scanned windows.
type zoneField struct {
	pred *imaging.LabelMap
	mpp  float64
	// landableSum[y*(W+1)+x] counts the landable pixels in [0,x)×[0,y).
	landableSum []int32
	// roadSq is computed when the first window passes the landable test, so
	// a frame where none does never runs the distance transform.
	roadSq *imaging.Map

	scanned scanKey
	scan    []zoneWindow
}

// scanKey identifies a scan: the window geometry (zone side, stride and
// border margin in pixels) and the bits of its minimum landable fraction,
// so that a NaN, which admits every window, still matches itself.
type scanKey struct {
	zonePx, stride, margin int
	minSafe                uint64
}

// zoneWindow is one scanned zone: its origin, its minimum distance to a
// predicted road pixel (in pixels) and its landable fraction.
type zoneWindow struct {
	x, y    int
	minDist float32
	frac    float64
}

func newZoneField(pred *imaging.LabelMap, mpp float64) *zoneField {
	if mpp <= 0 {
		panic(fmt.Sprintf("core: invalid meters-per-pixel %v", mpp))
	}
	w := pred.W + 1
	sum := make([]int32, w*(pred.H+1))
	for y := 0; y < pred.H; y++ {
		above, row := sum[y*w:(y+1)*w], sum[(y+1)*w:(y+2)*w]
		var n int32
		for x, c := range pred.Pix[y*pred.W : (y+1)*pred.W] {
			if landable(c) {
				n++
			}
			row[x+1] = above[x+1] + n
		}
	}
	return &zoneField{pred: pred, mpp: mpp, landableSum: sum}
}

// windows returns the zonePx-sided windows from margin to the far margin in
// steps of stride whose landable fraction is not below minSafe, each with
// its minimum road distance and landable fraction, scanning only when the
// key differs from the last scan's. The ladder relaxes only the buffer, so
// one scan serves every rung. A window's road distance is the square root
// of its minimum squared distance: the minimum of the pixels' rounded
// roots, since the root and the rounding are both monotone.
func (f *zoneField) windows(zonePx, stride, margin int, minSafe float64) []zoneWindow {
	// zonePx is at least 1, so the zero value of scanned matches no scan.
	key := scanKey{zonePx, stride, margin, math.Float64bits(minSafe)}
	if f.scanned == key {
		return f.scan
	}
	pred, sum, w := f.pred, f.landableSum, f.pred.W+1
	area := float64(zonePx * zonePx)
	var scan []zoneWindow
	for y := margin; y+zonePx <= pred.H-margin; y += stride {
		top, bottom := sum[y*w:(y+1)*w], sum[(y+zonePx)*w:(y+zonePx+1)*w]
		for x := margin; x+zonePx <= pred.W-margin; x += stride {
			n := bottom[x+zonePx] - bottom[x] - top[x+zonePx] + top[x]
			frac := float64(n) / area
			if frac < minSafe {
				continue
			}
			if f.roadSq == nil {
				f.roadSq = pred.SquaredDistanceTransform(imaging.Class.BusyRoad)
			}
			minSq := float32(math.Inf(1))
			for yy := y; yy < y+zonePx; yy++ {
				for _, d := range f.roadSq.Pix[yy*pred.W+x : yy*pred.W+x+zonePx] {
					if d < minSq {
						minSq = d
					}
				}
			}
			minDist := float32(math.Sqrt(float64(minSq)))
			scan = append(scan, zoneWindow{x: x, y: y, minDist: minDist, frac: frac})
		}
	}
	f.scanned, f.scan = key, scan
	return scan
}

// candidates keeps the scanned windows cfg admits and ranks them.
func (f *zoneField) candidates(cfg ZoneConfig) []Candidate {
	pred, mpp := f.pred, f.mpp
	zonePx := int(math.Ceil(cfg.ZoneSizeM / mpp))
	if zonePx <= 0 || zonePx > pred.W || zonePx > pred.H {
		return nil
	}
	stride := cfg.Stride
	if stride <= 0 {
		stride = zonePx / 2
		if stride == 0 {
			stride = 1
		}
	}
	// Beyond this distance from the nearest road, extra margin adds no
	// safety: it caps scores so distance does not drown the other criteria
	// (and keeps road-free predictions comparable).
	maxUsefulDistM := 3 * cfg.BufferM
	if maxUsefulDistM < 30 {
		maxUsefulDistM = 30
	}
	bufferPx := float32(cfg.BufferM / mpp)

	margin := cfg.BorderMarginPx
	if margin < 0 {
		margin = 0
	}
	if cfg.BorderMarginPx == 0 {
		margin = zonePx / 4
	}

	var cands []Candidate
	for _, w := range f.windows(zonePx, stride, margin, cfg.MinSafeFraction) {
		if w.minDist < bufferPx {
			continue
		}
		distM := float64(w.minDist) * mpp
		if distM > maxUsefulDistM || math.IsInf(distM, 1) {
			distM = maxUsefulDistM
		}
		c := Candidate{
			X0: w.x, Y0: w.y, SizePx: zonePx,
			MinRoadDistM: distM,
			SafeFraction: w.frac,
		}
		c.Score = distM + 10*w.frac
		if cfg.HomeX != 0 || cfg.HomeY != 0 {
			cx, cy := c.CenterM(mpp)
			c.Score -= 0.08 * math.Hypot(cx-cfg.HomeX, cy-cfg.HomeY)
		}
		cands = append(cands, c)
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].Score > cands[j].Score })
	cands = diversify(cands, zonePx)
	if cfg.MaxCandidates > 0 && len(cands) > cfg.MaxCandidates {
		cands = cands[:cfg.MaxCandidates]
	}
	return cands
}

// diversify greedily suppresses candidates overlapping an already-kept,
// better-scored one, so the Decision Module's retries explore genuinely
// different zones instead of shifted copies of the same block.
func diversify(sorted []Candidate, zonePx int) []Candidate {
	var kept []Candidate
	for _, c := range sorted {
		overlaps := false
		for _, k := range kept {
			if abs(c.X0-k.X0) < zonePx && abs(c.Y0-k.Y0) < zonePx {
				overlaps = true
				break
			}
		}
		if !overlaps {
			kept = append(kept, c)
		}
	}
	return kept
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
