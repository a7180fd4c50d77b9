package hazard

import (
	"math"
	"testing"
	"testing/quick"

	"safeland/internal/imaging"
)

func TestSeverityTable(t *testing.T) {
	tab := SeverityTable()
	if len(tab) != 5 {
		t.Fatalf("severity table has %d levels, want 5", len(tab))
	}
	for i, s := range tab {
		if int(s) != i+1 {
			t.Errorf("level %d has value %d", i, int(s))
		}
		if s.String() == "" || s.Description() == "" {
			t.Errorf("level %v missing text", s)
		}
	}
}

func TestHazardCategories(t *testing.T) {
	seen := map[string]bool{}
	for c := Category(0); c < NumCategories; c++ {
		name := c.String()
		if name == "" || seen[name] {
			t.Errorf("category %d name %q empty or duplicate", c, name)
		}
		seen[name] = true
	}
}

func TestFatalityProbabilityShape(t *testing.T) {
	// Monotone increasing in energy.
	prev := 0.0
	for _, e := range []float64{10, 100, 1000, 8230, 1e5, 1e7} {
		p := FatalityProbability(e, 1)
		if p < prev {
			t.Errorf("P(fatality) decreased at E=%v: %v < %v", e, p, prev)
		}
		prev = p
	}
	// Monotone decreasing in sheltering.
	if FatalityProbability(8230, 0.5) <= FatalityProbability(8230, 7.5) {
		t.Error("more sheltering should reduce fatality probability")
	}
	// The paper's ballistic impact (8.23 kJ) on an unsheltered person is
	// near-certainly serious.
	if p := FatalityProbability(8230, 0.5); p < 0.5 {
		t.Errorf("P(fatality | 8.23 kJ, open) = %v, want > 0.5", p)
	}
	if FatalityProbability(0, 1) != 0 {
		t.Error("zero energy must be harmless")
	}
	property := func(eExp, shel uint8) bool {
		e := math.Pow(10, float64(eExp%8))
		s := 0.3 + float64(shel%100)/10
		p := FatalityProbability(e, s)
		return p >= 0 && p <= 1
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLethalArea(t *testing.T) {
	a1 := LethalArea(1)
	if a1 <= 0 {
		t.Fatal("non-positive lethal area")
	}
	if LethalArea(3) <= a1 {
		t.Error("larger UAV should have larger lethal area")
	}
	// 1 m span + 0.3 m person radius → π·0.8² ≈ 2.01 m².
	if math.Abs(a1-math.Pi*0.64) > 1e-9 {
		t.Errorf("lethal area = %v, want %v", a1, math.Pi*0.64)
	}
}

func TestAssessReproducesTableIIOrdering(t *testing.T) {
	// Build the paper's Table II situations with MEDI DELIVERY parameters
	// (8.23 kJ ballistic impact) and representative densities, and check the
	// derived severities reproduce the published ordering.
	const ke, span = 8230.0, 1.0
	busyRoad := Assess(Impact{Surface: imaging.Road, KineticEnergyJ: ke, SpanM: span,
		PeoplePerM2: 0.015, TrafficFactor: 1.0})
	people := Assess(Impact{Surface: imaging.Humans, KineticEnergyJ: ke, SpanM: span,
		PeoplePerM2: 0.25, TrafficFactor: 0})
	building := Assess(Impact{Surface: imaging.Building, KineticEnergyJ: ke, SpanM: span,
		PeoplePerM2: 0.008, TrafficFactor: 0})
	parked := Assess(Impact{Surface: imaging.StaticCar, KineticEnergyJ: ke, SpanM: span,
		PeoplePerM2: 0.002, TrafficFactor: 0})

	if busyRoad.Severity != Catastrophic {
		t.Errorf("busy road severity = %v, want Catastrophic (R1)", busyRoad.Severity)
	}
	if people.Severity != Major {
		t.Errorf("people severity = %v, want Major (R2)", people.Severity)
	}
	if building.Severity != Serious {
		t.Errorf("building severity = %v, want Serious (R4)", building.Severity)
	}
	if parked.Severity != Minor {
		t.Errorf("parked car severity = %v, want Minor (R5)", parked.Severity)
	}
	if busyRoad.ExpectedSecondary == 0 {
		t.Error("busy road impact should carry secondary accident risk")
	}
	if people.ExpectedSecondary != 0 {
		t.Error("non-road impact should have no secondary accident term")
	}
}

func TestAssessEnergyReductionHelps(t *testing.T) {
	// An M2 mitigation (parachute) cutting impact energy must cut severity
	// on people — the paper's argument that M2 reduces R2 from 4 to 2.
	hard := Assess(Impact{Surface: imaging.Humans, KineticEnergyJ: 8230, SpanM: 1,
		PeoplePerM2: 0.25})
	soft := Assess(Impact{Surface: imaging.Humans, KineticEnergyJ: 80, SpanM: 1,
		PeoplePerM2: 0.25})
	if soft.Severity >= hard.Severity {
		t.Errorf("parachute impact severity %v not below ballistic %v", soft.Severity, hard.Severity)
	}
	if soft.ExpectedFatalities >= hard.ExpectedFatalities {
		t.Error("reduced energy should reduce expected fatalities")
	}
	// But M2 does NOT defuse the busy-road outcome (the paper's key point:
	// a parachute landing on a busy road still causes accidents).
	roadSoft := Assess(Impact{Surface: imaging.Road, KineticEnergyJ: 80, SpanM: 1,
		PeoplePerM2: 0.015, TrafficFactor: 1.0})
	if roadSoft.Severity < Major {
		t.Errorf("parachute landing on busy road severity = %v, want >= Major", roadSoft.Severity)
	}
}

func TestFireProbabilityVegetation(t *testing.T) {
	veg := Assess(Impact{Surface: imaging.LowVegetation, KineticEnergyJ: 8230, SpanM: 1})
	pav := Assess(Impact{Surface: imaging.Clutter, KineticEnergyJ: 8230, SpanM: 1})
	if veg.FireProbability <= pav.FireProbability {
		t.Error("vegetation should carry higher post-crash fire probability")
	}
}
