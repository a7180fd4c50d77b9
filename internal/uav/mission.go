package uav

import (
	"context"
	"fmt"
	"math"

	"safeland/internal/hazard"
	"safeland/internal/imaging"
	"safeland/internal/urban"
)

// LandingPlanner selects an emergency touchdown point. The core package's
// landing-zone selection pipeline implements it; the uav package only
// depends on this interface so the simulator can also run with baseline
// planners or none at all.
type LandingPlanner interface {
	// PlanLanding picks a touchdown point (meters) reachable from (x, y).
	// ok is false when no acceptable zone exists. The mission's context
	// bounds the planning: a cancelled mission aborts it mid-selection, and
	// the aborted planning reports ok=false, which the safety switch treats
	// as EL unavailable (the conservative interpretation: no verified zone,
	// terminate).
	PlanLanding(ctx context.Context, scene *urban.Scene, xM, yM float64) (txM, tyM float64, ok bool)
}

// TimedFailure schedules a failure injection.
type TimedFailure struct {
	AtS  float64
	Kind FailureKind
	// ClearAtS, when positive, recovers the failure at that time (for
	// temporary losses).
	ClearAtS float64
}

// Mission describes one simulated flight over a scene.
type Mission struct {
	Spec      Spec
	Scene     *urban.Scene
	Waypoints [][2]float64 // meters; first entry is the start
	Base      [2]float64   // meters; return-to-base target
	Failures  []TimedFailure
	Wind      *Wind
	// Planner provides Emergency Landing; nil means EL unavailable.
	Planner LandingPlanner
	// Hour is the local time of day, driving exposure densities.
	Hour float64
	// HoverTimeoutS configures the safety switch escalation.
	HoverTimeoutS float64
}

// Outcome reports how the flight ended.
type Outcome struct {
	// Maneuver is the final emergency procedure engaged (ContinueMission if
	// the flight completed nominally).
	Maneuver Maneuver
	// Failure is the failure that ended the nominal mission.
	Failure FailureKind
	// Completed is true for a nominal mission end or a safe return/landing
	// at base.
	Completed bool
	// Impacted is true when the vehicle reached the ground away from base.
	Impacted bool
	// ImpactX, ImpactY locate the touchdown (meters).
	ImpactX, ImpactY float64
	// ImpactSurface is the ground-truth class under the touchdown point.
	ImpactSurface imaging.Class
	// ImpactEnergyJ is the touchdown kinetic energy.
	ImpactEnergyJ float64
	// Assessment quantifies the consequences.
	Assessment hazard.Assessment
	// FlightTimeS is the total simulated time.
	FlightTimeS float64
	// Log records the event trace.
	Log []string
}

// Run simulates the mission with a 0.5 s step and returns the outcome.
func (m *Mission) Run() Outcome {
	return m.RunCtx(context.Background())
}

// RunCtx is Run with the context threaded into the landing planner:
// cancelling ctx aborts an emergency-landing selection already in progress
// — the selection reports no zone and the flight terminates, the same
// conservative branch an unavailable planner takes. The flight dynamics
// themselves are pure arithmetic and run to completion regardless of ctx.
func (m *Mission) RunCtx(ctx context.Context) Outcome {
	const dt = 0.5
	if len(m.Waypoints) == 0 {
		panic("uav: mission needs at least one waypoint")
	}
	x, y := m.Waypoints[0][0], m.Waypoints[0][1]
	wpIdx := 1
	t := 0.0
	decide := &Decide{Switch: Switch{ELAvailable: m.Planner != nil, HoverTimeoutS: m.HoverTimeoutS}}
	out := Outcome{Maneuver: ContinueMission}
	logf := func(format string, args ...any) {
		out.Log = append(out.Log, fmt.Sprintf("t=%6.1fs "+format, append([]any{t}, args...)...))
	}
	logf("departure at (%.0f, %.0f), %s", x, y, m.Spec.Name)

	activeFailure := func() FailureKind {
		worst := NoFailure
		for _, f := range m.Failures {
			if t >= f.AtS && (f.ClearAtS <= 0 || t < f.ClearAtS) {
				if f.Kind > worst {
					worst = f.Kind
				}
			}
		}
		return worst
	}

	// flyToward advances toward a target and reports arrival.
	flyToward := func(tx, ty, speed float64) bool {
		dx, dy := tx-x, ty-y
		dist := math.Hypot(dx, dy)
		if dist <= speed*dt {
			x, y = tx, ty
			return true
		}
		x += dx / dist * speed * dt
		y += dy / dist * speed * dt
		return false
	}

	maxT := m.Spec.EnduranceS
	if maxT <= 0 {
		maxT = 3600
	}
	var elTarget [2]float64
	elPlanned := false

	for ; t < maxT; t += dt {
		failure := activeFailure()
		maneuver := decide.Step(t, failure)
		if maneuver > out.Maneuver {
			out.Maneuver = maneuver
			out.Failure = failure
			logf("failure %q -> %s", failure, maneuver)
		} else if maneuver < out.Maneuver && out.Maneuver == Hover {
			// Recovery from hover: resume the mission.
			out.Maneuver = maneuver
			logf("failure cleared -> %s", maneuver)
		}

		switch out.Maneuver {
		case ContinueMission:
			if wpIdx >= len(m.Waypoints) {
				out.Completed = true
				out.FlightTimeS = t
				logf("mission complete")
				return out
			}
			if flyToward(m.Waypoints[wpIdx][0], m.Waypoints[wpIdx][1], m.Spec.CruiseSpeedMS) {
				wpIdx++
			}
		case Hover:
			// Hold position.
		case ReturnToBase:
			if flyToward(m.Base[0], m.Base[1], m.Spec.CruiseSpeedMS) {
				out.Completed = true
				out.FlightTimeS = t + m.Spec.CruiseAltM/math.Max(m.Spec.DescentSpeedMS, 0.5)
				logf("landed at base")
				return out
			}
		case EmergencyLanding:
			if !elPlanned {
				tx, ty, ok := m.Planner.PlanLanding(ctx, m.Scene, x, y)
				if !ok {
					logf("no safe landing zone -> flight termination")
					out.Maneuver = FlightTermination
					continue
				}
				elTarget = [2]float64{tx, ty}
				elPlanned = true
				logf("landing zone selected at (%.0f, %.0f)", tx, ty)
			}
			if flyToward(elTarget[0], elTarget[1], m.Spec.CruiseSpeedMS*0.7) {
				// EL keeps trajectory control: descend over the zone to the
				// deployment altitude before opening the canopy, limiting
				// wind drift (the buffer in zone selection assumes this).
				deployAlt := m.Spec.ParachuteDeployAltM
				if deployAlt <= 0 || deployAlt > m.Spec.CruiseAltM {
					deployAlt = m.Spec.CruiseAltM
				}
				descent := (m.Spec.CruiseAltM - deployAlt) / math.Max(m.Spec.DescentSpeedMS, 0.5)
				return m.touchdown(t+descent, x, y, deployAlt, &out)
			}
		case FlightTermination:
			return m.touchdown(t, x, y, m.Spec.CruiseAltM, &out)
		}
	}
	// Endurance exhausted: battery death, ballistic fall here.
	logf("endurance exhausted")
	out.Failure = BatteryCritical
	out.Maneuver = FlightTermination
	return m.touchdown(t, x, y, -1, &out)
}

// touchdown terminates the flight at (x, y) from the given altitude: a
// parachute descent with wind drift when a canopy is available and
// fromAltM is positive, otherwise a ballistic fall from cruise. It fills
// the impact fields of out.
func (m *Mission) touchdown(t, x, y, fromAltM float64, out *Outcome) Outcome {
	alt := fromAltM
	var impactSpeed, dur float64
	if alt > 0 && m.Spec.ParachuteSinkMS > 0 {
		var dx, dy float64
		dx, dy, dur, impactSpeed = ParachuteDescent(alt, m.Spec.ParachuteSinkMS, m.Wind, t)
		x += dx
		y += dy
	} else {
		alt = m.Spec.CruiseAltM
		impactSpeed = BallisticImpactSpeed(alt)
		dur = impactSpeed / G // free-fall duration
	}
	out.FlightTimeS = t + dur
	out.Impacted = true
	out.ImpactX, out.ImpactY = x, y
	out.ImpactEnergyJ = KineticEnergy(m.Spec.MTOWKg, impactSpeed)
	out.ImpactSurface = m.surfaceAt(x, y)
	out.Assessment = hazard.Assess(hazard.Impact{
		Surface:        out.ImpactSurface,
		KineticEnergyJ: out.ImpactEnergyJ,
		SpanM:          m.Spec.SpanM,
		PeoplePerM2:    urban.ClassDensity(out.ImpactSurface, m.Hour),
		TrafficFactor:  urban.TrafficFactor(m.Hour),
	})
	out.Log = append(out.Log, fmt.Sprintf("t=%6.1fs touchdown on %s at (%.0f, %.0f), %.0f J, severity %s",
		out.FlightTimeS, out.ImpactSurface, x, y, out.ImpactEnergyJ, out.Assessment.Severity))
	return *out
}

// surfaceAt samples the ground-truth class at world position (meters),
// clamped to the scene bounds.
func (m *Mission) surfaceAt(xM, yM float64) imaging.Class {
	px := int(xM / m.Scene.MPP)
	py := int(yM / m.Scene.MPP)
	if px < 0 {
		px = 0
	}
	if py < 0 {
		py = 0
	}
	if px >= m.Scene.Labels.W {
		px = m.Scene.Labels.W - 1
	}
	if py >= m.Scene.Labels.H {
		py = m.Scene.Labels.H - 1
	}
	return m.Scene.Labels.At(px, py)
}
