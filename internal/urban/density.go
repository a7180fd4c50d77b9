package urban

import (
	"math"

	"safeland/internal/imaging"
)

// The population density model substitutes for the external density
// databases the SORA M1 mitigation and the dynamic-data EL literature rely
// on (average density maps, cellphone-usage data). It assigns a people/m²
// prior per semantic class, modulated by a diurnal activity curve.

// basePeoplePerM2 is the nominal daytime density of people exposed on each
// surface class. Values follow the orders of magnitude used in UAS
// ground-risk assessments for a mid-density city: sheltered building
// occupants count at a reduced exposure factor, busy roads carry vehicle
// occupants and crossing pedestrians, parks and plazas carry recreational
// foot traffic.
func basePeoplePerM2(c imaging.Class) float64 {
	switch c {
	case imaging.Road:
		return 0.015 // vehicle occupants + pedestrians crossing
	case imaging.MovingCar:
		return 0.30 // ~1.5 occupants per 5 m² vehicle footprint
	case imaging.StaticCar:
		return 0.02 // mostly empty parked vehicles
	case imaging.Building:
		return 0.008 // occupants behind structure (sheltering credited later)
	case imaging.Humans:
		return 1.0 // a person is present by construction
	case imaging.LowVegetation:
		return 0.004
	case imaging.Tree:
		return 0.001
	default: // clutter: pavement, plazas
		return 0.006
	}
}

// DiurnalFactor returns the relative activity level at the given local time
// in hours [0, 24): quiet at night, peaks at commute hours, sustained
// through the day. The curve integrates to roughly 1.0 over busy hours.
func DiurnalFactor(hour float64) float64 {
	hour = math.Mod(math.Mod(hour, 24)+24, 24)
	// Two commute peaks (8h30, 18h) on a daytime plateau.
	day := 0.15 + 0.65*gaussianBump(hour, 14, 5.5)
	peakAM := 0.5 * gaussianBump(hour, 8.5, 1.2)
	peakPM := 0.6 * gaussianBump(hour, 18, 1.5)
	v := day + peakAM + peakPM
	if v > 1.5 {
		v = 1.5
	}
	return v
}

// TrafficFactor returns the relative road traffic level at the given local
// time, sharing the diurnal shape with stronger commute peaks.
func TrafficFactor(hour float64) float64 {
	hour = math.Mod(math.Mod(hour, 24)+24, 24)
	base := 0.1 + 0.5*gaussianBump(hour, 13.5, 5)
	peakAM := 0.9 * gaussianBump(hour, 8.5, 1.1)
	peakPM := 1.0 * gaussianBump(hour, 18, 1.4)
	v := base + peakAM + peakPM
	if v > 1.6 {
		v = 1.6
	}
	return v
}

func gaussianBump(x, mu, sigma float64) float64 {
	d := (x - mu) / sigma
	return math.Exp(-0.5 * d * d)
}

// ClassDensity returns the exposed population density (people/m²) on one
// surface class at the given local time.
func ClassDensity(c imaging.Class, hour float64) float64 {
	return basePeoplePerM2(c) * DiurnalFactor(hour)
}
