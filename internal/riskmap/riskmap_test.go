package riskmap

import (
	"math"
	"testing"

	"safeland/internal/imaging"
	"safeland/internal/urban"
)

func testScene(seed int64) *urban.Scene {
	cfg := urban.DefaultConfig()
	cfg.W, cfg.H = 128, 128
	return urban.Generate(cfg, urban.DefaultConditions(), seed)
}

func TestBuildStaticForbidsFootprints(t *testing.T) {
	s := testScene(3)
	risk := BuildStatic(s.Layout, s.Labels.W, s.Labels.H, s.MPP, DefaultStaticConfig())
	// Road centers must be forbidden.
	for _, r := range s.Layout.Roads {
		px := int(r.Rect.CenterX() / s.MPP)
		py := int(r.Rect.CenterY() / s.MPP)
		if !risk.In(px, py) {
			continue
		}
		if !math.IsInf(float64(risk.At(px, py)), 1) {
			t.Errorf("road center (%d,%d) risk = %v, want +Inf", px, py, risk.At(px, py))
		}
	}
	for _, b := range s.Layout.Buildings {
		px := int(b.Rect.CenterX() / s.MPP)
		py := int(b.Rect.CenterY() / s.MPP)
		if !risk.In(px, py) {
			continue
		}
		if !math.IsInf(float64(risk.At(px, py)), 1) {
			t.Errorf("building center risk not +Inf")
		}
	}
}

func TestBuildStaticDecaysWithDistance(t *testing.T) {
	// A single road in an otherwise empty layout: risk decays to zero.
	lay := &urban.Layout{
		WorldW: 64, WorldH: 64,
		Roads: []urban.RoadM{{Rect: urban.RectM{X0: 0, Y0: 30, X1: 64, Y1: 34}, Horizontal: true}},
	}
	risk := BuildStatic(lay, 128, 128, 0.5, DefaultStaticConfig())
	nearRoad := risk.At(64, 70) // ~1 m from edge
	farther := risk.At(64, 100) // ~16 m
	veryFar := risk.At(64, 127) // ~30 m, beyond the 20 m range
	if !(nearRoad > farther) {
		t.Errorf("risk near road (%v) not above farther (%v)", nearRoad, farther)
	}
	if veryFar != 0 {
		t.Errorf("risk beyond influence range = %v, want 0", veryFar)
	}
}

func TestSelectZoneAvoidsRoads(t *testing.T) {
	s := testScene(9)
	risk := BuildStatic(s.Layout, s.Labels.W, s.Labels.H, s.MPP, DefaultStaticConfig())
	x0, y0, ok := SelectZone(risk, 16)
	if !ok {
		t.Skip("no feasible window in this scene")
	}
	ci := imaging.NewClassIntegral(s.Labels)
	if fr := ci.Fraction(imaging.Road, x0, y0, x0+16, y0+16); fr > 0 {
		t.Errorf("static map selected a zone containing road pixels (%.3f)", fr)
	}
	if fr := ci.Fraction(imaging.Building, x0, y0, x0+16, y0+16); fr > 0 {
		t.Errorf("zone contains building pixels (%.3f)", fr)
	}
}

func TestSelectZoneAllForbidden(t *testing.T) {
	risk := imaging.NewMap(32, 32)
	risk.Fill(float32(math.Inf(1)))
	if _, _, ok := SelectZone(risk, 8); ok {
		t.Error("selection should fail when everything is forbidden")
	}
	if _, _, ok := SelectZone(risk, 0); ok {
		t.Error("zero zone size should fail")
	}
	if _, _, ok := SelectZone(risk, 64); ok {
		t.Error("oversized zone should fail")
	}
}

func TestSelectZonePrefersLowRisk(t *testing.T) {
	risk := imaging.NewMap(64, 64)
	risk.Fill(1)
	risk.FillRect(40, 40, 56, 56, 0.1) // a low-risk pocket
	x0, y0, ok := SelectZone(risk, 12)
	if !ok {
		t.Fatal("no zone")
	}
	if x0 < 36 || y0 < 36 || x0 > 46 || y0 > 46 {
		t.Errorf("zone at (%d,%d), want inside the low-risk pocket", x0, y0)
	}
}
