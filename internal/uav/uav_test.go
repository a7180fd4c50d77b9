package uav

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"safeland/internal/urban"
)

func TestPaperPhysicsNumbers(t *testing.T) {
	// Section III-A: 120 m → 48.5 m/s ballistic speed; 7 kg → 8.23 kJ.
	v := BallisticImpactSpeed(120)
	if math.Abs(v-48.5) > 0.1 {
		t.Errorf("ballistic speed from 120 m = %.2f m/s, want 48.5", v)
	}
	ke := BallisticImpactEnergy(7, 120)
	if math.Abs(ke-8230) > 30 {
		t.Errorf("kinetic energy = %.0f J, want ≈8230 (8.23 kJ)", ke)
	}
	spec := MediDelivery()
	if spec.SpanM != 1.0 || spec.MTOWKg != 7.0 || spec.CruiseAltM != 120 {
		t.Errorf("MediDelivery spec diverges from the paper: %+v", spec)
	}
}

func TestBallisticEdgeCases(t *testing.T) {
	if BallisticImpactSpeed(0) != 0 || BallisticImpactSpeed(-5) != 0 {
		t.Error("non-positive heights should give zero speed")
	}
	if KineticEnergy(7, 0) != 0 {
		t.Error("zero speed zero energy")
	}
	property := func(h uint16) bool {
		height := float64(h%500) + 1
		v := BallisticImpactSpeed(height)
		// invertible: h = v²/2g
		return math.Abs(v*v/(2*G)-height) < 1e-9
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestWindDeterministicAndStationary(t *testing.T) {
	a := NewWind(3, -1, 1.5, 42)
	b := NewWind(3, -1, 1.5, 42)
	for i := 0; i < 50; i++ {
		ax, ay := a.At(float64(i) * 0.5)
		bx, by := b.At(float64(i) * 0.5)
		if ax != bx || ay != by {
			t.Fatal("same-seed winds differ")
		}
	}
	// Long-run mean close to the configured mean.
	w := NewWind(3, -1, 1.0, 7)
	var sx, sy float64
	const n = 20_000
	for i := 0; i < n; i++ {
		wx, wy := w.At(float64(i) * 0.5)
		sx += wx
		sy += wy
	}
	if math.Abs(sx/n-3) > 0.3 || math.Abs(sy/n+1) > 0.3 {
		t.Errorf("wind mean (%.2f, %.2f), want ≈(3, -1)", sx/n, sy/n)
	}
	// Nil and zero-value winds are calm.
	var calm *Wind
	if wx, wy := calm.At(1); wx != 0 || wy != 0 {
		t.Error("nil wind not calm")
	}
}

func TestParachuteDescent(t *testing.T) {
	w := NewWind(4, 0, 0, 1) // steady 4 m/s east
	dx, dy, dur, v := ParachuteDescent(120, 5.5, w, 0)
	wantDur := 120 / 5.5
	if math.Abs(dur-wantDur) > 1e-9 {
		t.Errorf("duration = %v, want %v", dur, wantDur)
	}
	if v != 5.5 {
		t.Errorf("impact speed = %v", v)
	}
	if math.Abs(dx-4*wantDur) > 0.5 {
		t.Errorf("drift X = %v, want ≈%v", dx, 4*wantDur)
	}
	if math.Abs(dy) > 0.5 {
		t.Errorf("drift Y = %v, want ≈0", dy)
	}
	// Parachute impact energy must be far below ballistic.
	if KineticEnergy(7, v) >= BallisticImpactEnergy(7, 120)/10 {
		t.Error("parachute did not reduce impact energy by an order of magnitude")
	}
}

func TestDriftBuffer(t *testing.T) {
	base := DriftBuffer(120, 5.5, 4, 0, 3)
	if math.Abs(base-4*120/5.5) > 1e-6 {
		t.Errorf("pure-mean drift buffer = %v", base)
	}
	gusty := DriftBuffer(120, 5.5, 4, 1.5, 3)
	if gusty <= base {
		t.Error("gusts must enlarge the buffer")
	}
	if DriftBuffer(0, 5.5, 4, 1, 3) != 0 {
		t.Error("zero altitude zero buffer")
	}
	// Higher deployment altitude → longer exposure → bigger buffer
	// (Table III: buffer accounts for deployment altitude).
	if DriftBuffer(240, 5.5, 4, 1, 3) <= DriftBuffer(120, 5.5, 4, 1, 3) {
		t.Error("buffer should grow with altitude")
	}
}

func TestSelectManeuverMatchesFigure1(t *testing.T) {
	tests := []struct {
		k    FailureKind
		el   bool
		want Maneuver
	}{
		{NoFailure, true, ContinueMission},
		{CommLossTemporary, true, Hover},
		{CommLossPermanent, true, ReturnToBase},
		{MotorDegraded, true, ReturnToBase},
		{NavigationLoss, true, EmergencyLanding},
		{NavigationLoss, false, FlightTermination}, // no EL → FT
		{BatteryCritical, true, EmergencyLanding},
		{EngineFailure, true, FlightTermination},
		{FlightControlFault, true, FlightTermination},
	}
	for _, tt := range tests {
		if got := SelectManeuver(tt.k, tt.el); got != tt.want {
			t.Errorf("SelectManeuver(%v, el=%v) = %v, want %v", tt.k, tt.el, got, tt.want)
		}
	}
}

// plannerFunc adapts a function to the LandingPlanner interface.
type plannerFunc func(ctx context.Context, s *urban.Scene, x, y float64) (float64, float64, bool)

func (f plannerFunc) PlanLanding(ctx context.Context, s *urban.Scene, x, y float64) (float64, float64, bool) {
	return f(ctx, s, x, y)
}

func testScene() *urban.Scene {
	cfg := urban.DefaultConfig()
	cfg.W, cfg.H = 128, 128
	return urban.Generate(cfg, urban.DefaultConditions(), 77)
}

func baseMission(scene *urban.Scene) Mission {
	world := scene.Layout.WorldW
	return Mission{
		Spec:  MediDelivery(),
		Scene: scene,
		Waypoints: [][2]float64{
			{world * 0.1, world * 0.1},
			{world * 0.9, world * 0.9},
		},
		Base: [2]float64{world * 0.1, world * 0.1},
		Hour: 14,
	}
}

func TestMissionCompletesWithoutFailures(t *testing.T) {
	m := baseMission(testScene())
	out := m.Run()
	if !out.Completed || out.Impacted {
		t.Fatalf("nominal mission outcome: %+v", out)
	}
	if out.Maneuver != ContinueMission {
		t.Errorf("maneuver = %v", out.Maneuver)
	}
}

func TestMissionHoverRecovery(t *testing.T) {
	m := baseMission(testScene())
	m.Failures = []TimedFailure{{AtS: 2, Kind: CommLossTemporary, ClearAtS: 6}}
	m.HoverTimeoutS = 30
	out := m.Run()
	if !out.Completed {
		t.Fatalf("mission with transient loss should complete: %+v", out.Log)
	}
}

func TestMissionPermanentCommLossReturnsToBase(t *testing.T) {
	m := baseMission(testScene())
	m.Failures = []TimedFailure{{AtS: 3, Kind: CommLossPermanent}}
	out := m.Run()
	if !out.Completed || out.Impacted {
		t.Fatalf("RB should land at base: %+v", out.Log)
	}
	if out.Maneuver != ReturnToBase {
		t.Errorf("maneuver = %v, want RB", out.Maneuver)
	}
}

func TestMissionNavigationLossTriggersELOrFT(t *testing.T) {
	scene := testScene()
	// Planner that targets the center of the first open block, whatever its
	// kind; this scene geometry test does not need the real zone selector.
	planner := plannerFunc(func(_ context.Context, s *urban.Scene, x, y float64) (float64, float64, bool) {
		for _, blocks := range [][]urban.RectM{s.Layout.Parks, s.Layout.Plazas, s.Layout.ParkingLots} {
			if len(blocks) > 0 {
				return blocks[0].CenterX(), blocks[0].CenterY(), true
			}
		}
		return x, y, true // land in place
	})
	withEL := baseMission(scene)
	withEL.Planner = planner
	withEL.Failures = []TimedFailure{{AtS: 3, Kind: NavigationLoss}}
	out := withEL.Run()
	if out.Maneuver != EmergencyLanding {
		t.Fatalf("maneuver = %v, want EL; log: %v", out.Maneuver, out.Log)
	}
	if !out.Impacted {
		t.Fatal("EL should end with a touchdown")
	}
	if out.ImpactEnergyJ >= BallisticImpactEnergy(withEL.Spec.MTOWKg, withEL.Spec.CruiseAltM)/5 {
		t.Errorf("EL impact energy %.0f J not parachute-like", out.ImpactEnergyJ)
	}

	withoutEL := baseMission(scene)
	withoutEL.Failures = []TimedFailure{{AtS: 3, Kind: NavigationLoss}}
	out2 := withoutEL.Run()
	if out2.Maneuver != FlightTermination {
		t.Fatalf("without planner maneuver = %v, want FT", out2.Maneuver)
	}
}

func TestMissionRunCtxThreadsContextToPlanner(t *testing.T) {
	scene := testScene()
	// A ctx-honoring planner: refuses when the context is done, otherwise
	// lands in place.
	planner := plannerFunc(func(ctx context.Context, s *urban.Scene, x, y float64) (float64, float64, bool) {
		if ctx.Err() != nil {
			return 0, 0, false
		}
		return x, y, true
	})

	live := baseMission(scene)
	live.Planner = planner
	live.Failures = []TimedFailure{{AtS: 3, Kind: NavigationLoss}}
	if out := live.RunCtx(context.Background()); out.Maneuver != EmergencyLanding {
		t.Fatalf("live ctx: maneuver = %v, want EL; log: %v", out.Maneuver, out.Log)
	}

	// A cancelled mission context reaches the planner, whose refusal takes
	// the conservative flight-termination branch.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	dead := baseMission(scene)
	dead.Planner = planner
	dead.Failures = []TimedFailure{{AtS: 3, Kind: NavigationLoss}}
	if out := dead.RunCtx(cancelled); out.Maneuver != FlightTermination {
		t.Fatalf("cancelled ctx: maneuver = %v, want FT; log: %v", out.Maneuver, out.Log)
	}
}

func TestMissionPlannerFailureFallsBackToFT(t *testing.T) {
	m := baseMission(testScene())
	m.Planner = plannerFunc(func(context.Context, *urban.Scene, float64, float64) (float64, float64, bool) {
		return 0, 0, false
	})
	m.Failures = []TimedFailure{{AtS: 3, Kind: NavigationLoss}}
	out := m.Run()
	if out.Maneuver != FlightTermination {
		t.Fatalf("maneuver = %v, want FT after planner failure", out.Maneuver)
	}
}

func TestMissionEngineFailureImpactsImmediately(t *testing.T) {
	m := baseMission(testScene())
	m.Failures = []TimedFailure{{AtS: 4, Kind: EngineFailure}}
	out := m.Run()
	if out.Maneuver != FlightTermination || !out.Impacted {
		t.Fatalf("engine failure outcome: %+v", out)
	}
	// FT opens the parachute: impact energy far below ballistic.
	ballistic := BallisticImpactEnergy(m.Spec.MTOWKg, m.Spec.CruiseAltM)
	if out.ImpactEnergyJ >= ballistic/5 {
		t.Errorf("FT impact %.0f J vs ballistic %.0f J: parachute missing", out.ImpactEnergyJ, ballistic)
	}
	if !out.ImpactSurface.Valid() {
		t.Error("impact surface not sampled")
	}
}

func TestMissionNoParachuteBallistic(t *testing.T) {
	m := baseMission(testScene())
	m.Spec.ParachuteSinkMS = 0 // no canopy installed
	m.Failures = []TimedFailure{{AtS: 4, Kind: EngineFailure}}
	out := m.Run()
	want := BallisticImpactEnergy(m.Spec.MTOWKg, m.Spec.CruiseAltM)
	if math.Abs(out.ImpactEnergyJ-want) > 1 {
		t.Errorf("ballistic impact = %.0f J, want %.0f", out.ImpactEnergyJ, want)
	}
	if out.Assessment.Severity < 2 {
		t.Error("ballistic urban impact should not be negligible")
	}
}

func TestMissionWindDriftsParachute(t *testing.T) {
	scene := testScene()
	m := baseMission(scene)
	m.Wind = NewWind(6, 0, 0, 3)
	m.Failures = []TimedFailure{{AtS: 4, Kind: EngineFailure}}
	out := m.Run()
	calm := baseMission(scene)
	calm.Failures = m.Failures
	outCalm := calm.Run()
	if out.ImpactX <= outCalm.ImpactX {
		t.Errorf("eastward wind should drift impact east: %v vs %v", out.ImpactX, outCalm.ImpactX)
	}
}

func TestManeuverStrings(t *testing.T) {
	for m, want := range map[Maneuver]string{
		Hover: "hovering (H)", ReturnToBase: "return-to-base (RB)",
		EmergencyLanding: "emergency landing (EL)", FlightTermination: "flight termination (FT)",
	} {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), want)
		}
	}
	for k := NoFailure; k <= FlightControlFault; k++ {
		if k.String() == "" {
			t.Errorf("failure %d has empty name", k)
		}
	}
}
