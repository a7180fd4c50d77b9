package core

import (
	"fmt"
	"math"
	"sort"

	"safeland/internal/imaging"
)

// refZoneField is the zone field as it was before the scan tested the
// landable fraction first: every pixel's road distance from
// DistanceTransform, a float64 integral of a 0/1 landable map, and every
// window scanned with its minimum road distance and landable fraction,
// both tests applied per rung. It stays as the oracle ladder and
// Candidates must match.
type refZoneField struct {
	pred   *imaging.LabelMap
	mpp    float64
	dist   *imaging.Map
	safeIt *imaging.Integral

	scanned [3]int
	scan    []zoneWindow
}

func newRefZoneField(pred *imaging.LabelMap, mpp float64) *refZoneField {
	if mpp <= 0 {
		panic(fmt.Sprintf("core: invalid meters-per-pixel %v", mpp))
	}
	safe := imaging.NewMap(pred.W, pred.H)
	for i, c := range pred.Pix {
		if landable(c) {
			safe.Pix[i] = 1
		}
	}
	return &refZoneField{
		pred:   pred,
		mpp:    mpp,
		dist:   pred.DistanceTransform(imaging.Class.BusyRoad),
		safeIt: imaging.NewIntegral(safe),
	}
}

func (f *refZoneField) windows(zonePx, stride, margin int) []zoneWindow {
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

func (f *refZoneField) candidates(cfg ZoneConfig) []Candidate {
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

// refCandidates is Candidates on the oracle field.
func refCandidates(pred *imaging.LabelMap, mpp float64, cfg ZoneConfig) []Candidate {
	return newRefZoneField(pred, mpp).candidates(cfg)
}

// refLadder is ladder on the oracle field.
func refLadder(pred *imaging.LabelMap, mpp float64, cfg ZoneConfig, keep func([]Candidate) []Candidate) ([]Candidate, float64) {
	field := newRefZoneField(pred, mpp)
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
