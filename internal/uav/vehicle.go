// Package uav is the flight substrate: vehicle specifications, ballistic and
// parachute descent physics, a gusty wind model, a failure taxonomy, the
// paper's Figure 1 safety switch (Hover / Return-to-Base / Emergency Landing
// / Flight Termination), and a mission simulator that closes the loop from
// failure injection to ground impact over a generated urban scene.
package uav

import "math"

// G is the standard gravitational acceleration (m/s²).
const G = 9.80665

// Spec is the static description of a vehicle.
type Spec struct {
	Name string
	// SpanM is the characteristic dimension (rotor-tip to rotor-tip).
	SpanM float64
	// MTOWKg is the maximum take-off weight.
	MTOWKg float64
	// CruiseAltM is the nominal flight height above ground.
	CruiseAltM float64
	// CruiseSpeedMS is the nominal horizontal speed.
	CruiseSpeedMS float64
	// EnduranceS is the nominal battery endurance at cruise.
	EnduranceS float64
	// ParachuteSinkMS is the steady descent rate under canopy.
	ParachuteSinkMS float64
	// ParachuteDeployAltM is the altitude an Emergency Landing descends to
	// (under control) before opening the canopy, limiting wind drift.
	// Flight Termination has no control left and deploys from cruise.
	ParachuteDeployAltM float64
	// DescentSpeedMS is the controlled vertical landing speed.
	DescentSpeedMS float64
}

// MediDelivery returns the paper's Section III-A case study: a rotary-wing
// UAV with ~1 m span, 7 kg MTOW, flying at 120 m over a city BVLOS.
func MediDelivery() Spec {
	return Spec{
		Name:                "MEDI DELIVERY",
		SpanM:               1.0,
		MTOWKg:              7.0,
		CruiseAltM:          120,
		CruiseSpeedMS:       15,
		EnduranceS:          25 * 60,
		ParachuteSinkMS:     5.5,
		ParachuteDeployAltM: 35,
		DescentSpeedMS:      2.5,
	}
}

// BallisticImpactSpeed returns the vertical speed (m/s) after a drag-free
// fall from the given height — the paper's "typical ballistic vertical
// speed of 48.5 m/s" for 120 m.
func BallisticImpactSpeed(heightM float64) float64 {
	if heightM <= 0 {
		return 0
	}
	return math.Sqrt(2 * G * heightM)
}

// KineticEnergy returns ½mv² in joules — 8.23 kJ for the paper's 7 kg at
// 48.5 m/s.
func KineticEnergy(massKg, speedMS float64) float64 {
	return 0.5 * massKg * speedMS * speedMS
}

// BallisticImpactEnergy composes the two: the impact energy of an
// uncontrolled fall from the given height.
func BallisticImpactEnergy(massKg, heightM float64) float64 {
	return KineticEnergy(massKg, BallisticImpactSpeed(heightM))
}
