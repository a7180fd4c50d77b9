// Package riskmap implements the database-driven landing-site selection
// methods from the paper's related work: static risk maps built from GIS
// features (Bleier et al. 2015 — distance to buildings, roads, power lines,
// water) and their refinement with time-of-day population density (Di Donato
// & Atkins 2017, which used cellphone-usage data).
//
// These serve as comparison baselines for the paper's vision-based EL: a
// database knows the street grid a priori but cannot see live hazards
// (traffic, parked cars, pedestrians) — exactly the gap active EL fills.
package riskmap

import (
	"math"

	"safeland/internal/imaging"
	"safeland/internal/urban"
)

// StaticConfig weighs the GIS feature layers of the risk map.
type StaticConfig struct {
	// Influence distances (m): risk decays linearly to zero at this range.
	BuildingRangeM  float64
	RoadRangeM      float64
	PowerLineRangeM float64
	WaterRangeM     float64
	// Feature weights at zero distance.
	BuildingWeight  float64
	RoadWeight      float64
	PowerLineWeight float64
	WaterWeight     float64
}

// DefaultStaticConfig returns weights following the Bleier model: roads and
// power lines dominate (risk to third parties and infrastructure), then
// buildings, then water (UAV loss only).
func DefaultStaticConfig() StaticConfig {
	return StaticConfig{
		BuildingRangeM: 12, RoadRangeM: 20, PowerLineRangeM: 15, WaterRangeM: 6,
		BuildingWeight: 0.7, RoadWeight: 1.0, PowerLineWeight: 0.9, WaterWeight: 0.5,
	}
}

// BuildStatic rasterizes the vector layout into a per-pixel risk field of
// the given dimensions. Pixels inside a hazard footprint get +Inf risk;
// elsewhere risk decays linearly with distance to each feature.
func BuildStatic(lay *urban.Layout, w, h int, mpp float64, cfg StaticConfig) *imaging.Map {
	inf := float32(math.Inf(1))
	risk := imaging.NewMap(w, h)

	// Rasterize feature masks, then distance-transform each layer once.
	buildings := imaging.NewMap(w, h)
	for _, b := range lay.Buildings {
		buildings.FillRect(int(b.Rect.X0/mpp), int(b.Rect.Y0/mpp), int(b.Rect.X1/mpp), int(b.Rect.Y1/mpp), 1)
	}
	roads := imaging.NewMap(w, h)
	for _, r := range lay.Roads {
		roads.FillRect(int(r.Rect.X0/mpp), int(r.Rect.Y0/mpp), int(r.Rect.X1/mpp), int(r.Rect.Y1/mpp), 1)
	}
	lines := imaging.NewMap(w, h)
	for _, pl := range lay.PowerLines {
		lines.ThickLine(int(pl[0]/mpp), int(pl[1]/mpp), int(pl[2]/mpp), int(pl[3]/mpp), 0, 1)
	}
	water := imaging.NewMap(w, h)
	for _, p := range lay.Ponds {
		water.FillDisk(int(p.X/mpp), int(p.Y/mpp), int(p.R/mpp), 1)
	}

	layers := []struct {
		mask   *imaging.Map
		rangeM float64
		weight float64
		hard   bool // footprint itself is forbidden
	}{
		{buildings, cfg.BuildingRangeM, cfg.BuildingWeight, true},
		{roads, cfg.RoadRangeM, cfg.RoadWeight, true},
		{lines, cfg.PowerLineRangeM, cfg.PowerLineWeight, true},
		{water, cfg.WaterRangeM, cfg.WaterWeight, true},
	}
	for _, layer := range layers {
		if layer.mask.CountAbove(0.5) == 0 {
			continue
		}
		dist := layer.mask.DistanceTransform()
		rangePx := float32(layer.rangeM / mpp)
		if rangePx <= 0 {
			rangePx = 1
		}
		for i, d := range dist.Pix {
			switch {
			case d == 0 && layer.hard:
				risk.Pix[i] = inf
			case d < rangePx:
				risk.Pix[i] += float32(layer.weight) * (1 - d/rangePx)
			}
		}
	}
	return risk
}

// WithDensity refines a static risk map with time-of-day population
// exposure (the Di Donato & Atkins dynamic-data idea): risk increases with
// the expected number of people present.
func WithDensity(static *imaging.Map, labels *imaging.LabelMap, hour, weight float64) *imaging.Map {
	density := urban.PopulationDensity(labels, hour)
	out := static.Clone()
	// Normalize density so the weight is comparable to feature risks.
	_, maxD := density.MinMax()
	if maxD <= 0 {
		return out
	}
	for i := range out.Pix {
		out.Pix[i] += float32(weight) * density.Pix[i] / maxD
	}
	return out
}

// Windows answers window queries on a risk map from two summed-area
// tables: the finite risk, with each forbidden (+Inf) pixel read as 0, and
// the forbidden pixels.
type Windows struct {
	finite, forbidden *imaging.Integral
}

// NewWindows builds the tables of a risk map.
func NewWindows(risk *imaging.Map) Windows {
	finite := imaging.NewMap(risk.W, risk.H)
	forbidden := imaging.NewMap(risk.W, risk.H)
	for i, v := range risk.Pix {
		if math.IsInf(float64(v), 1) {
			forbidden.Pix[i] = 1
		} else {
			finite.Pix[i] = v
		}
	}
	return Windows{finite: imaging.NewIntegral(finite), forbidden: imaging.NewIntegral(forbidden)}
}

// Mean returns the mean risk of the size×size window at (x0, y0), or
// forbidden (and a mean of 0) when the window holds a forbidden pixel.
func (w Windows) Mean(x0, y0, size int) (mean float64, forbidden bool) {
	if w.forbidden.RectSum(x0, y0, x0+size, y0+size) > 0 {
		return 0, true
	}
	return w.finite.RectMean(x0, y0, x0+size, y0+size), false
}

// SelectZone returns the top-left corner of the zonePx×zonePx window with
// the lowest mean risk, skipping windows containing forbidden (+Inf)
// pixels. ok is false when every window is forbidden.
func SelectZone(risk *imaging.Map, zonePx int) (x0, y0 int, ok bool) {
	if zonePx <= 0 || zonePx > risk.W || zonePx > risk.H {
		return 0, 0, false
	}
	windows := NewWindows(risk)
	best := math.Inf(1)
	bestX, bestY := -1, -1
	for y := 0; y+zonePx <= risk.H; y += 2 {
		for x := 0; x+zonePx <= risk.W; x += 2 {
			mean, forbidden := windows.Mean(x, y, zonePx)
			if !forbidden && mean < best {
				best = mean
				bestX, bestY = x, y
			}
		}
	}
	if bestX < 0 {
		return 0, 0, false
	}
	return bestX, bestY, true
}
