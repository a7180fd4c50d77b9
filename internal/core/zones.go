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
	// calibration (negative = default of a quarter zone).
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
// the road buffer: each pixel's distance to the nearest predicted
// busy-road pixel, the integral of landable pixels, and the scan of the
// zone windows, kept for the window geometry it was made for. Each ladder
// rung only filters and scores the scanned windows.
type zoneField struct {
	pred   *imaging.LabelMap
	mpp    float64
	dist   *imaging.Map
	safeIt *imaging.Integral

	// scan holds every window of geometry scanned (zone side, stride and
	// border margin in pixels), in scan order.
	scanned [3]int
	scan    []zoneWindow
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
	safe := imaging.NewMap(pred.W, pred.H)
	for i, c := range pred.Pix {
		if landable(c) {
			safe.Pix[i] = 1
		}
	}
	return &zoneField{
		pred:   pred,
		mpp:    mpp,
		dist:   pred.DistanceTransform(imaging.Class.BusyRoad),
		safeIt: imaging.NewIntegral(safe),
	}
}

// windows returns the zonePx-sided windows from margin to the far margin in
// steps of stride, each with its minimum road distance and landable
// fraction, scanning only when the geometry differs from the last scan's.
func (f *zoneField) windows(zonePx, stride, margin int) []zoneWindow {
	// zonePx is at least 1, so the zero value of scanned matches no scan.
	geom := [3]int{zonePx, stride, margin}
	if f.scanned == geom {
		return f.scan
	}
	pred, dist := f.pred, f.dist
	var scan []zoneWindow
	for y := margin; y+zonePx <= pred.H-margin; y += stride {
		for x := margin; x+zonePx <= pred.W-margin; x += stride {
			minDist := float32(math.Inf(1))
			for yy := y; yy < y+zonePx; yy++ {
				row := dist.Pix[yy*dist.W+x : yy*dist.W+x+zonePx]
				for _, d := range row {
					if d < minDist {
						minDist = d
					}
				}
			}
			frac := f.safeIt.RectMean(x, y, x+zonePx, y+zonePx)
			scan = append(scan, zoneWindow{x: x, y: y, minDist: minDist, frac: frac})
		}
	}
	f.scanned, f.scan = geom, scan
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
	for _, w := range f.windows(zonePx, stride, margin) {
		if w.minDist < bufferPx || w.frac < cfg.MinSafeFraction {
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
