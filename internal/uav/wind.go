package uav

import (
	"math"
	"math/rand"
)

// Wind is a first-order gust model: a constant mean vector plus an AR(1)
// turbulence component (a light-weight stand-in for a Dryden spectrum).
// Construct with NewWind; the zero value is calm air.
type Wind struct {
	MeanX, MeanY float64 // m/s
	GustStd      float64 // standard deviation of the gust component
	corrTime     float64 // gust correlation time (s)

	rng          *rand.Rand
	gustX, gustY float64
	lastT        float64
	initialized  bool
}

// NewWind builds a wind field with the given mean vector and gust standard
// deviation; gusts decorrelate over about five seconds.
func NewWind(meanX, meanY, gustStd float64, seed int64) *Wind {
	return &Wind{
		MeanX: meanX, MeanY: meanY, GustStd: gustStd,
		corrTime: 5,
		rng:      rand.New(rand.NewSource(seed)),
	}
}

// At returns the wind vector at simulation time t (seconds, non-decreasing
// across calls). The zero value returns calm air.
func (w *Wind) At(t float64) (wx, wy float64) {
	if w == nil || w.rng == nil {
		return 0, 0
	}
	dt := t - w.lastT
	if !w.initialized {
		dt = 0
		w.initialized = true
	}
	w.lastT = t
	if dt > 0 && w.GustStd > 0 {
		// AR(1): ρ = exp(−dt/τ); innovation variance keeps stationary std.
		rho := math.Exp(-dt / w.corrTime)
		inn := w.GustStd * math.Sqrt(1-rho*rho)
		w.gustX = rho*w.gustX + inn*w.rng.NormFloat64()
		w.gustY = rho*w.gustY + inn*w.rng.NormFloat64()
	}
	return w.MeanX + w.gustX, w.MeanY + w.gustY
}

// ParachuteDescent integrates a parachute descent from the given altitude
// under the wind field, starting at simulation time t0. It returns the
// horizontal drift vector (m), the descent duration (s) and the impact
// speed (the steady sink rate).
func ParachuteDescent(altM, sinkMS float64, w *Wind, t0 float64) (driftX, driftY, durationS, impactMS float64) {
	if altM <= 0 || sinkMS <= 0 {
		return 0, 0, 0, 0
	}
	durationS = altM / sinkMS
	const dt = 0.25
	for t := 0.0; t < durationS; t += dt {
		step := dt
		if t+dt > durationS {
			step = durationS - t
		}
		wx, wy := w.At(t0 + t)
		driftX += wx * step
		driftY += wy * step
	}
	return driftX, driftY, durationS, sinkMS
}

// DriftBuffer returns a conservative bound (m) on parachute drift from the
// given altitude: mean wind carries the canopy for the whole descent and the
// gusts add kSigma standard deviations of integrated turbulence. It sizes
// the landing zones' road buffer (core.DefaultZoneConfig) — the Table III
// geometry requirement ("the buffer from roads must take into account the
// typical parachute drift").
func DriftBuffer(altM, sinkMS, windSpeed, gustStd, kSigma float64) float64 {
	if altM <= 0 || sinkMS <= 0 {
		return 0
	}
	duration := altM / sinkMS
	mean := windSpeed * duration
	// Integrated AR(1) noise std grows ~ sqrt(2·τ·T)·σ for T >> τ.
	const tau = 5.0
	gust := gustStd * math.Sqrt(2*tau*duration)
	return mean + kSigma*gust
}
