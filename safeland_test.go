package safeland

import (
	"context"
	"path/filepath"
	"sync"
	"testing"

	"safeland/internal/core"
	"safeland/internal/imaging"
	"safeland/internal/sora"
	"safeland/internal/uav"
	"safeland/internal/urban"
)

var sysOnce struct {
	sync.Once
	sys *System
}

// quickSystem trains one shared small system for the facade tests.
func quickSystem(t *testing.T) *System {
	t.Helper()
	sysOnce.Do(func() {
		sysOnce.sys = NewSystem(Options{
			Seed:        7,
			TrainScenes: 3,
			TrainSteps:  150,
			SceneSize:   128,
			MCSamples:   5,
		})
	})
	return sysOnce.sys
}

func TestNewSystemDefaultsApplied(t *testing.T) {
	// Zero options must not panic: defaults fill in (verified indirectly
	// through option plumbing — a full default build is too slow for unit
	// tests, so only validate the fill-in logic via a tiny config).
	s := quickSystem(t)
	if s.Pipeline == nil || s.Pipeline.Model == nil || s.Pipeline.Monitor == nil {
		t.Fatal("system incompletely assembled")
	}
	if s.Spec.Name != "MEDI DELIVERY" {
		t.Errorf("default vehicle = %q", s.Spec.Name)
	}
	if s.Pipeline.Monitor.Samples != 5 {
		t.Errorf("MC samples = %d, want 5", s.Pipeline.Monitor.Samples)
	}
}

func TestEngineSelectLandingZone(t *testing.T) {
	s := quickSystem(t)
	cfg := urban.DefaultConfig()
	cfg.W, cfg.H = 128, 128
	scene := urban.Generate(cfg, urban.DefaultConditions(), 42)
	eng, err := NewEngine(WithSystem(s), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	resp := eng.Select(context.Background(), SelectRequest{Image: scene.Image, MPP: scene.MPP})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	res := resp.Result
	if res.Pred == nil {
		t.Fatal("no prediction in result")
	}
	if res.Confirmed {
		// Confirmed zone must be road-free in ground truth.
		z := res.Zone
		for y := z.Y0; y < z.Y0+z.SizePx; y++ {
			for x := z.X0; x < z.X0+z.SizePx; x++ {
				if scene.Labels.At(x, y).BusyRoad() {
					t.Fatalf("confirmed zone covers busy road at (%d,%d)", x, y)
				}
			}
		}
	}
}

func TestSystemSaveLoadRoundtrip(t *testing.T) {
	s := quickSystem(t)
	path := filepath.Join(t.TempDir(), "sys.ckpt")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	// Load uses the default architecture; the quick system is smaller, so
	// loading must fail cleanly here — exercising the error path.
	if _, err := Load(path, 1); err == nil {
		t.Log("load succeeded (architectures match)")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.ckpt"), 1); err == nil {
		t.Error("expected error for missing checkpoint")
	}
}

func TestCertifyPaperNumbers(t *testing.T) {
	s := quickSystem(t)
	// Without validation claims the EL mitigation collapses to None
	// robustness: the SORA outcome equals the paper's M3-only case.
	a := Certify(s.Spec, core.Claims{})
	if a.IntrinsicGRC != 6 {
		t.Errorf("intrinsic GRC = %d, want 6", a.IntrinsicGRC)
	}
	if a.Err != nil || a.SAIL != sora.SAILV {
		t.Errorf("SAIL without claims = %v (err %v), want SAIL V", a.SAIL, a.Err)
	}
	// Full in-context + OOD + authority-verified claims: robustness Medium,
	// GRC 6-2=4 → SAIL IV.
	full := core.Claims{InContextTesting: true, OODValidation: true, AuthorityVerifiedData: true}
	a = Certify(s.Spec, full)
	if a.FinalGRC != 4 || a.SAIL != sora.SAILIV {
		t.Errorf("certified with EL = GRC %d %v, want GRC 4 SAIL IV", a.FinalGRC, a.SAIL)
	}
}

func TestOperationMatchesPaper(t *testing.T) {
	op := Operation(uav.MediDelivery())
	if op.Scenario != sora.BVLOSPopulated {
		t.Error("operation not BVLOS populated")
	}
	if op.KineticEnergyJ < 8200 || op.KineticEnergyJ > 8260 {
		t.Errorf("kinetic energy %.0f J, want ≈8230", op.KineticEnergyJ)
	}
	if sora.InitialARC(op.Airspace) != sora.ARCc {
		t.Error("airspace should map to ARC-c")
	}
}

func TestEngineAsMissionPlanner(t *testing.T) {
	s := quickSystem(t)
	cfg := urban.DefaultConfig()
	cfg.W, cfg.H = 128, 128
	scene := urban.Generate(cfg, urban.DefaultConditions(), 43)
	eng, err := NewEngine(WithSystem(s), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	m := &uav.Mission{
		Spec:      s.Spec,
		Scene:     scene,
		Waypoints: [][2]float64{{5, 5}, {scene.Layout.WorldW - 5, scene.Layout.WorldH - 5}},
		Base:      [2]float64{5, 5},
		Planner:   eng,
		Failures:  []uav.TimedFailure{{AtS: 3, Kind: uav.NavigationLoss}},
		Hour:      14,
	}
	out := m.Run()
	if out.Maneuver != uav.EmergencyLanding && out.Maneuver != uav.FlightTermination {
		t.Fatalf("maneuver = %v, want EL or FT fallback", out.Maneuver)
	}
	if !out.Impacted {
		t.Fatal("navigation loss must end on the ground")
	}
}

// TestEnginePlanLanding pins the Engine as the mission simulator's landing
// planner on both monitored selectors: a planned target lies inside the
// world and off busy road in ground truth; the home bias rides on the
// request and leaks into no later planning; and the same planning under a
// cancelled context, or on an odd frame, reports no zone.
func TestEnginePlanLanding(t *testing.T) {
	s := quickSystem(t)
	scenes := urban.GenerateSet(urban.DefaultConfig(), urban.DefaultConditions(), 4, 300)
	odd := &urban.Scene{Image: imaging.NewImage(63, 64), MPP: 0.5}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	ctx := context.Background()
	for _, factory := range []SelectorFactory{PipelineSelector(), HybridSelector()} {
		eng, err := NewEngine(WithSystem(s), WithWorkers(1), WithSelector(factory))
		if err != nil {
			t.Fatal(err)
		}
		name := eng.SelectorName()
		planned := false
		for _, sc := range scenes {
			x, y := sc.Layout.WorldW/2, sc.Layout.WorldH/2
			tx, ty, ok := eng.PlanLanding(ctx, sc, x, y)
			if !ok {
				continue
			}
			planned = true
			if tx < 0 || ty < 0 || tx > sc.Layout.WorldW || ty > sc.Layout.WorldH {
				t.Fatalf("%s: landing target (%.1f, %.1f) outside world", name, tx, ty)
			}
			if sc.Labels.At(int(tx/sc.MPP), int(ty/sc.MPP)).BusyRoad() {
				t.Errorf("%s: planned landing point is on a busy road in ground truth", name)
			}
			eng.PlanLanding(ctx, sc, 0, 0)
			if tx2, ty2, ok := eng.PlanLanding(ctx, sc, x, y); !ok || tx2 != tx || ty2 != ty {
				t.Errorf("%s: planning from (0, 0) changed a later planning: (%.1f, %.1f) %v, want (%.1f, %.1f)",
					name, tx2, ty2, ok, tx, ty)
			}
			if _, _, ok := eng.PlanLanding(cancelled, sc, x, y); ok {
				t.Errorf("%s: plans a zone under a cancelled context", name)
			}
			break
		}
		if !planned {
			t.Fatalf("%s planned no zone on any scene, so the planner is untested", name)
		}
		if s.Pipeline.Zones.HomeX != 0 || s.Pipeline.Zones.HomeY != 0 {
			t.Errorf("%s: planning leaked the home bias into the system's zone settings", name)
		}
		if _, _, ok := eng.PlanLanding(ctx, odd, 10, 10); ok {
			t.Errorf("%s: plans a zone on an odd frame", name)
		}
		eng.Close()
	}
}
