package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"safeland/internal/imaging"
	"safeland/internal/riskmap"
)

// FuzzZoneSelection fuzzes the Table III integrity criteria over arbitrary
// predicted segmentations: whatever the labels, the zone geometry and the
// configured thresholds, every candidate Candidates returns must keep the
// parachute-drift buffer to the nearest predicted busy-road pixel and a
// landable-surface majority — recomputed here by brute force, independent
// of the distance transform and summed-area table the selector uses — and
// the list must equal the one the zone field gave before it tested the
// landable fraction first (refCandidates).
func FuzzZoneSelection(f *testing.F) {
	f.Add(int64(1), uint8(48), uint8(48), 12.0, 15.0, 0.85, 0.15)
	f.Add(int64(2021), uint8(64), uint8(32), 8.0, 4.0, 0.5, 0.4)
	f.Add(int64(7), uint8(24), uint8(80), 20.0, 0.5, 0.95, 0.05)
	f.Add(int64(-9), uint8(16), uint8(16), 3.0, 25.0, 0.3, 0.8)
	f.Add(int64(11), uint8(64), uint8(64), 12.0, 15.0, 1.0, 0.1) // no window fully landable
	f.Add(int64(12), uint8(40), uint8(56), 6.0, 10.0, 0.3, 0.0)  // road density 0
	f.Fuzz(func(t *testing.T, seed int64, w8, h8 uint8, zoneM, bufferM, minSafe, roadDensity float64) {
		w := 16 + int(w8)%65
		h := 16 + int(h8)%65
		const mpp = 0.5
		zoneM = clampFinite(zoneM, 2, 30)
		bufferM = clampFinite(bufferM, 0.1, 25)
		minSafe = clampFinite(minSafe, 0.2, 1)
		roadDensity = clampFinite(roadDensity, 0, 0.9)

		pred := randomPrediction(rand.New(rand.NewSource(seed)), w, h, roadDensity)

		cfg := ZoneConfig{
			ZoneSizeM:       zoneM,
			BufferM:         bufferM,
			MinSafeFraction: minSafe,
			MaxCandidates:   8,
		}
		cands := Candidates(pred, mpp, cfg)
		if want := refCandidates(pred, mpp, cfg); !reflect.DeepEqual(cands, want) {
			t.Fatalf("%d candidates, the parent's zone field %d: %+v vs %+v", len(cands), len(want), cands, want)
		}

		var roads [][2]int
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if pred.At(x, y).BusyRoad() {
					roads = append(roads, [2]int{x, y})
				}
			}
		}
		bufferPx := bufferM / mpp
		for ci, c := range cands {
			if c.X0 < 0 || c.Y0 < 0 || c.X0+c.SizePx > w || c.Y0+c.SizePx > h {
				t.Fatalf("candidate %d out of bounds: %+v in %dx%d", ci, c, w, h)
			}
			landable := 0
			for y := c.Y0; y < c.Y0+c.SizePx; y++ {
				for x := c.X0; x < c.X0+c.SizePx; x++ {
					cl := pred.At(x, y)
					if cl.BusyRoad() {
						t.Fatalf("candidate %d contains predicted busy-road pixel (%d,%d)", ci, x, y)
					}
					if cl == imaging.LowVegetation || cl == imaging.Clutter {
						landable++
					}
				}
			}
			// The zone is a full pixel rectangle, so the min distance from
			// any zone pixel to a road pixel is the road pixel's distance
			// to its clamped projection onto the rectangle — O(roads)
			// instead of O(zonePixels × roads).
			minDist := math.Inf(1)
			for _, r := range roads {
				nx := clampInt(r[0], c.X0, c.X0+c.SizePx-1)
				ny := clampInt(r[1], c.Y0, c.Y0+c.SizePx-1)
				d := math.Hypot(float64(r[0]-nx), float64(r[1]-ny))
				if d < minDist {
					minDist = d
				}
			}
			if len(roads) > 0 && minDist < bufferPx-1e-3 {
				t.Fatalf("candidate %d violates the drift buffer: %.3f px to road, need %.3f px (%.1f m)",
					ci, minDist, bufferPx, bufferM)
			}
			frac := float64(landable) / float64(c.SizePx*c.SizePx)
			if frac < minSafe-1e-3 {
				t.Fatalf("candidate %d violates the landable majority: %.4f < %.4f", ci, frac, minSafe)
			}
			// The reported metrics must agree with the recomputation.
			if math.Abs(frac-c.SafeFraction) > 1e-3 {
				t.Fatalf("candidate %d reports safe fraction %.4f, truth %.4f", ci, c.SafeFraction, frac)
			}
		}
	})
}

// randomPrediction is an adversarial "prediction": random per-pixel
// classes at the given road density plus a few coherent road strips, the
// worst of speckle noise and real street geometry.
func randomPrediction(rng *rand.Rand, w, h int, roadDensity float64) *imaging.LabelMap {
	pred := imaging.NewLabelMap(w, h)
	classes := []imaging.Class{
		imaging.Clutter, imaging.Building, imaging.Tree,
		imaging.LowVegetation, imaging.Humans,
	}
	roadish := []imaging.Class{imaging.Road, imaging.StaticCar, imaging.MovingCar}
	for i := range pred.Pix {
		if rng.Float64() < roadDensity {
			pred.Pix[i] = roadish[rng.Intn(len(roadish))]
		} else {
			pred.Pix[i] = classes[rng.Intn(len(classes))]
		}
	}
	for s := 0; s < rng.Intn(3); s++ {
		y := rng.Intn(h)
		for x := 0; x < w; x++ {
			pred.Pix[y*w+x] = imaging.Road
		}
	}
	return pred
}

// TestLadderMatchesPerRungLoop pins the one-field ladder both selectors
// use to the loop it replaced, which called Candidates afresh on every
// rung: over random predictions, scales and zone settings, with no filter
// and with the hybrid's static-map fusion as the filter, the ladder must
// return the same candidates and the same used buffer. The trials must
// cover a first-rung hit, a relaxed-rung hit and an empty ladder.
func TestLadderMatchesPerRungLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	stops := map[string]int{}
	for trial := 0; trial < 300; trial++ {
		w, h := 16+rng.Intn(65), 16+rng.Intn(65)
		pred := randomPrediction(rng, w, h, 0.02*rng.Float64())
		mpp := 0.25 + 0.75*rng.Float64()
		cfg := ZoneConfig{
			ZoneSizeM:       4 + 8*rng.Float64(),
			BufferM:         30 * rng.Float64(),
			MinSafeFraction: 0.2 + 0.3*rng.Float64(),
			MaxCandidates:   rng.Intn(10),
			BorderMarginPx:  rng.Intn(4) - 1,
		}
		if rng.Intn(2) == 0 {
			cfg.HomeX, cfg.HomeY = float64(w)*mpp*rng.Float64(), float64(h)*mpp*rng.Float64()
		}
		static := imaging.NewMap(w, h)
		for i := range static.Pix {
			if rng.Float64() < 0.001 {
				static.Pix[i] = float32(infinity())
			} else {
				static.Pix[i] = rng.Float32()
			}
		}
		hy := &Hybrid{StaticWeight: 8, MaxStaticRisk: 0.6}
		fused := riskmap.NewWindows(static)
		keeps := map[string]func([]Candidate) []Candidate{
			"pipeline": nil,
			"hybrid":   func(c []Candidate) []Candidate { return hy.fuse(c, fused) },
		}
		for name, keep := range keeps {
			got, gotBuffer := ladder(pred, mpp, cfg, keep)
			zones := cfg
			var want []Candidate
			stop := "none"
			for i, scale := range []float64{1, 0.66, 0.4, 0.2} {
				zones.BufferM = cfg.BufferM * scale
				if zones.BufferM < zones.ZoneSizeM/4 {
					zones.BufferM = zones.ZoneSizeM / 4
				}
				want = Candidates(pred, mpp, zones)
				if keep != nil {
					want = keep(want)
				}
				if len(want) > 0 {
					stop = "relaxed"
					if i == 0 {
						stop = "first"
					}
					break
				}
			}
			stops[stop]++
			if !reflect.DeepEqual(got, want) || gotBuffer != zones.BufferM {
				t.Fatalf("trial %d %s (%dx%d, mpp %.3f, %+v): ladder gave %d candidates at %.3f m, per-rung loop %d at %.3f m",
					trial, name, w, h, mpp, cfg, len(got), gotBuffer, len(want), zones.BufferM)
			}
		}
	}
	for _, stop := range []string{"first", "relaxed", "none"} {
		if stops[stop] == 0 {
			t.Errorf("no trial stopped at %q: %v", stop, stops)
		}
	}
}

// TestZoneFieldMatchesParent pins ladder (with no filter and with the
// hybrid's static-map fusion) and Candidates to the zone field as it was
// before the scan tested the landable fraction first (refZoneField): over
// random predictions of 8–200 px with landable blocks and road strips, a
// map with no landable pixel and one with no busy road, and MinSafeFraction
// NaN, −1, 0, 1, 1.5 or random, varied stride, border margin and home. A
// frame where no window passes the landable test must never run the road
// distance transform.
func TestZoneFieldMatchesParent(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	minSafes := []float64{math.NaN(), -1, 0, 1, 1.5}
	seen := map[string]int{}
	for trial := 0; trial < 2000; trial++ {
		w, h := 8+rng.Intn(193), 8+rng.Intn(193)
		pred := zonePrediction(rng, w, h, trial != 0, trial != 1)
		mpp := 0.25 + 0.75*rng.Float64()
		cfg := ZoneConfig{
			ZoneSizeM:       1 + 19*rng.Float64(),
			BufferM:         30 * rng.Float64(),
			MinSafeFraction: rng.Float64(),
			MaxCandidates:   rng.Intn(10),
			BorderMarginPx:  rng.Intn(6) - 2,
		}
		if i := rng.Intn(len(minSafes) + 2); i < len(minSafes) {
			cfg.MinSafeFraction = minSafes[i]
		}
		if rng.Intn(2) == 0 {
			cfg.Stride = 1 + rng.Intn(8)
		}
		if rng.Intn(2) == 0 {
			cfg.HomeX, cfg.HomeY = float64(w)*mpp*rng.Float64(), float64(h)*mpp*rng.Float64()
		}
		static := imaging.NewMap(w, h)
		for i := range static.Pix {
			static.Pix[i] = rng.Float32()
		}
		hy := &Hybrid{StaticWeight: 8, MaxStaticRisk: 0.6}
		fused := riskmap.NewWindows(static)
		fuse := func(c []Candidate) []Candidate { return hy.fuse(c, fused) }
		for name, keep := range map[string]func([]Candidate) []Candidate{"pipeline": nil, "hybrid": fuse} {
			got, gotBuffer := ladder(pred, mpp, cfg, keep)
			want, wantBuffer := refLadder(pred, mpp, cfg, keep)
			if !reflect.DeepEqual(got, want) || gotBuffer != wantBuffer {
				t.Fatalf("trial %d %s ladder (%dx%d, mpp %.3f, %+v): %d candidates at %v m, parent %d at %v m",
					trial, name, w, h, mpp, cfg, len(got), gotBuffer, len(want), wantBuffer)
			}
		}
		field := newZoneField(pred, mpp)
		got := field.candidates(cfg)
		if want := refCandidates(pred, mpp, cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d Candidates (%dx%d, mpp %.3f, %+v): %d candidates, parent %d",
				trial, w, h, mpp, cfg, len(got), len(want))
		}
		switch {
		case len(field.scan) == 0 && field.roadSq != nil:
			t.Fatalf("trial %d: no window passed the landable test, yet the road transform ran", trial)
		case len(field.scan) == 0:
			seen["no survivor"]++
		case len(got) == 0:
			seen["survivors, no candidate"]++
		default:
			seen["candidates"]++
		}
		// Another MinSafeFraction on the same field must rescan, not reuse
		// the first scan's windows.
		again := cfg
		again.MinSafeFraction = minSafes[rng.Intn(len(minSafes))]
		if got, want := field.candidates(again), refCandidates(pred, mpp, again); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d Candidates rescanned (%dx%d, mpp %.3f, %+v): %d candidates, parent %d",
				trial, w, h, mpp, again, len(got), len(want))
		}
	}
	t.Logf("%v", seen)
	for _, k := range []string{"no survivor", "survivors, no candidate", "candidates"} {
		if seen[k] == 0 {
			t.Errorf("no trial had %s: %v", k, seen)
		}
	}
}

// zonePrediction is a prediction with coherent structure: a random mix of
// landable, other and (when roads) busy-road pixels, plus landable blocks
// (when landable) and road strips (when roads), so that windows pass and
// fail both tests of the zone field.
func zonePrediction(rng *rand.Rand, w, h int, landable, roads bool) *imaging.LabelMap {
	pred := imaging.NewLabelMap(w, h)
	land := []imaging.Class{imaging.LowVegetation, imaging.Clutter}
	other := []imaging.Class{imaging.Building, imaging.Tree, imaging.Humans}
	busy := imaging.BusyRoadClasses()
	pLand, pRoad := rng.Float64(), 0.02*rng.Float64()
	if !landable {
		pLand = 0
	}
	if !roads {
		pRoad = 0
	}
	for i := range pred.Pix {
		switch r := rng.Float64(); {
		case r < pRoad:
			pred.Pix[i] = busy[rng.Intn(len(busy))]
		case r < pRoad+(1-pRoad)*pLand:
			pred.Pix[i] = land[rng.Intn(len(land))]
		default:
			pred.Pix[i] = other[rng.Intn(len(other))]
		}
	}
	if landable {
		for b := rng.Intn(4); b > 0; b-- {
			x0, y0 := rng.Intn(w), rng.Intn(h)
			pred.FillRect(x0, y0, x0+rng.Intn(w), y0+rng.Intn(h), imaging.LowVegetation)
		}
	}
	if roads {
		for s := rng.Intn(3); s > 0; s-- {
			y := rng.Intn(h)
			pred.FillRect(0, y, w, y+1+rng.Intn(3), imaging.Road)
		}
	}
	return pred
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clampFinite(v, lo, hi float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
