package core

import (
	"context"
	"testing"

	"safeland/internal/imaging"
	"safeland/internal/riskmap"
	"safeland/internal/urban"
)

func TestHybridConfirmedZoneSatisfiesBothSources(t *testing.T) {
	p, scenes := trainedPipeline(t)
	h := NewHybrid(p)
	for _, s := range scenes[:2] {
		res := h.SelectAndVerify(s)
		if !res.Confirmed {
			continue
		}
		z := res.Zone
		// Vision invariant: ground truth road-free.
		ci := imaging.NewClassIntegral(s.Labels)
		if fr := ci.BusyRoadFraction(z.X0, z.Y0, z.X0+z.SizePx, z.Y0+z.SizePx); fr > 0 {
			t.Errorf("hybrid zone covers %.3f busy road in truth", fr)
		}
		// GIS invariant: the zone stays off mapped roads and buildings.
		for _, r := range s.Layout.Roads {
			if rectsOverlapM(z, s.MPP, r.Rect) {
				t.Error("hybrid zone overlaps a mapped road")
			}
		}
		for _, b := range s.Layout.Buildings {
			if rectsOverlapM(z, s.MPP, b.Rect) {
				t.Error("hybrid zone overlaps a mapped building")
			}
		}
	}
}

func rectsOverlapM(z Candidate, mpp float64, r urban.RectM) bool {
	zx0 := float64(z.X0) * mpp
	zy0 := float64(z.Y0) * mpp
	zx1 := zx0 + float64(z.SizePx)*mpp
	zy1 := zy0 + float64(z.SizePx)*mpp
	return zx0 < r.X1 && r.X0 < zx1 && zy0 < r.Y1 && r.Y0 < zy1
}

func TestHybridAtLeastAsStrictAsVision(t *testing.T) {
	p, scenes := trainedPipeline(t)
	h := NewHybrid(p)
	for _, s := range scenes[:2] {
		vision := p.SelectAndVerify(s.Image, s.MPP)
		hybrid := h.SelectAndVerify(s)
		if hybrid.CandidateCount > vision.CandidateCount {
			t.Errorf("hybrid produced more candidates (%d) than vision alone (%d)",
				hybrid.CandidateCount, vision.CandidateCount)
		}
	}
}

func TestHybridPlanLandingRestoresConfig(t *testing.T) {
	p, scenes := trainedPipeline(t)
	h := NewHybrid(p)
	_, _, _ = h.PlanLanding(context.Background(), scenes[0], 10, 10)
	if p.Zones.HomeX != 0 || p.Zones.HomeY != 0 {
		t.Error("hybrid PlanLanding leaked home bias")
	}
}

// TestHybridPlanLandingHonorsCancellation pins that the hybrid planner
// runs under the mission's context: on a scene where it confirms a zone, a
// cancelled context makes the same planning report no zone.
func TestHybridPlanLandingHonorsCancellation(t *testing.T) {
	p, scenes := trainedPipeline(t)
	h := NewHybrid(p)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	planned := false
	for _, s := range scenes {
		x, y := s.Layout.WorldW/2, s.Layout.WorldH/2
		if _, _, ok := h.PlanLanding(context.Background(), s, x, y); !ok {
			continue
		}
		planned = true
		if _, _, ok := h.PlanLanding(cancelled, s, x, y); ok {
			t.Error("hybrid PlanLanding reports a zone under a cancelled context")
		}
	}
	if !planned {
		t.Fatal("the hybrid planner confirmed no zone on any scene, so cancellation is untested")
	}
}

func TestHybridFuseRejectsForbidden(t *testing.T) {
	static := imaging.NewMap(64, 64)
	// Left half forbidden, right half risk gradient.
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			if x < 32 {
				static.Set(x, y, float32(infinity()))
			} else {
				static.Set(x, y, float32(x-32)/64)
			}
		}
	}
	h := &Hybrid{StaticWeight: 8, MaxStaticRisk: 0.3}
	cands := []Candidate{
		{X0: 4, Y0: 4, SizePx: 8, Score: 100},  // forbidden region
		{X0: 36, Y0: 10, SizePx: 8, Score: 10}, // low mapped risk
		{X0: 54, Y0: 10, SizePx: 8, Score: 90}, // above MaxStaticRisk
	}
	kept := h.fuse(cands, riskmap.NewWindows(static))
	if len(kept) != 1 {
		t.Fatalf("kept %d candidates, want 1", len(kept))
	}
	if kept[0].X0 != 36 {
		t.Errorf("kept wrong candidate: %+v", kept[0])
	}
}

func infinity() float64 { return 1e38 * 10 } // overflows float32 to +Inf
