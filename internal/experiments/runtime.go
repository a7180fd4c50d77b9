package experiments

import (
	"context"
	"fmt"
	"io"

	"safeland/internal/hazard"
	"safeland/internal/imaging"
	"safeland/internal/uav"
	"safeland/internal/urban"
)

// RunE5 reproduces the Figure 1 architecture behaviorally: it injects every
// failure kind into simulated missions and tabulates which maneuver the
// safety switch engages and how the flight ends.
//
// The missions fly as a fleet: every (repeat, scene) combination of a
// failure kind runs on its own goroutine with a shared safeland.Engine as
// the landing planner, so the perception calls are served by the worker
// pool while the flight dynamics parallelize freely. The scenes are the
// corpus-backed held-out split, shared with every other experiment in the
// process. Outcomes are collected by index and aggregated in order, and
// each mission's wind is seeded per (repeat, scene), so the table is
// byte-identical to a sequential run.
func RunE5(e *Env, w io.Writer) error {
	eng, err := e.Engine()
	if err != nil {
		return fmt.Errorf("E5: %w", err)
	}
	defer eng.Close()
	ds := e.Dataset()
	spec := uav.MediDelivery()
	// The mission context reaches the engine's selection
	// (uav.LandingPlanner takes it), so aborting an experiment run aborts
	// in-flight plannings mid-trial instead of waiting them out.
	ctx := context.Background()

	failures := []uav.FailureKind{
		uav.CommLossTemporary, uav.CommLossPermanent, uav.MotorDegraded,
		uav.NavigationLoss, uav.BatteryCritical, uav.EngineFailure, uav.FlightControlFault,
	}
	fmt.Fprintf(w, "  %-32s %-24s %8s %10s %12s\n", "injected failure", "maneuver engaged", "safe", "impacts", "worst sev")
	for _, fk := range failures {
		runs := e.Cfg.MissionRepeats * len(ds.Test)
		outs := make([]uav.Outcome, runs)
		fleetRun(e.Workers(), runs, func(i int) {
			rep, si := i/len(ds.Test), i%len(ds.Test)
			m := missionOn(ds.Test[si], spec, eng, 18)
			m.Wind = uav.NewWind(2, 0.5, 0.8, e.Cfg.Seed+int64(100*rep+si))
			m.Failures = []uav.TimedFailure{{AtS: 5, Kind: fk, ClearAtS: clearTime(fk)}}
			outs[i] = m.RunCtx(ctx)
		})

		var safe, impacts int
		worst := hazard.Negligible
		var maneuver uav.Maneuver
		for _, out := range outs {
			maneuver = out.Maneuver
			if out.Completed {
				safe++
			}
			if out.Impacted {
				impacts++
				if out.Assessment.Severity > worst {
					worst = out.Assessment.Severity
				}
			}
		}
		worstStr := "-"
		if impacts > 0 {
			worstStr = worst.String()
		}
		fmt.Fprintf(w, "  %-32s %-24s %3d/%-4d %10d %12s\n",
			fk.String(), maneuver.String(), safe, runs, impacts, worstStr)
	}
	fmt.Fprintln(w, "\nExpected shape: transient loss recovers (H), navigable failures return to base")
	fmt.Fprintln(w, "(RB), navigation loss lands via EL at parachute energy, control loss terminates (FT).")
	return nil
}

func clearTime(fk uav.FailureKind) float64 {
	if fk.Temporary() {
		return 15
	}
	return 0
}

// missionOn builds the standard diagonal crossing mission over a scene at
// the given local hour (the hour drives exposure densities at impact).
func missionOn(scene *urban.Scene, spec uav.Spec, planner uav.LandingPlanner, hour float64) *uav.Mission {
	wW, wH := scene.Layout.WorldW, scene.Layout.WorldH
	return &uav.Mission{
		Spec:  spec,
		Scene: scene,
		Waypoints: [][2]float64{
			{wW * 0.08, wH * 0.08},
			{wW * 0.92, wH * 0.92},
		},
		Base:    [2]float64{wW * 0.08, wH * 0.08},
		Planner: planner,
		Hour:    hour,
	}
}

// RunE6 reports dataset statistics — the Figure 3 stand-in: class balance,
// scene variety across seeds and conditions, and a sample ASCII rendering.
func RunE6(e *Env, w io.Writer) error {
	ds := e.Dataset()
	var frac [imaging.NumClasses]float64
	for _, s := range ds.Train {
		f := s.Labels.Fractions()
		for c := range frac {
			frac[c] += f[c] / float64(len(ds.Train))
		}
	}
	fmt.Fprintf(w, "Class balance over %d training scenes (%dx%d px, %.2f m/px):\n",
		len(ds.Train), ds.Train[0].Labels.W, ds.Train[0].Labels.H, ds.Train[0].MPP)
	for c := imaging.Class(0); c < imaging.NumClasses; c++ {
		bar := ""
		for i := 0; i < int(frac[c]*120); i++ {
			bar += "#"
		}
		fmt.Fprintf(w, "  %-15s %6.2f%% %s\n", c, frac[c]*100, bar)
	}

	fmt.Fprintf(w, "\nConditions: in-dist %s/%s at %.0f m; OOD %s/%s at %.0f m\n",
		ds.Train[0].Cond.Lighting, ds.Train[0].Cond.Season, ds.Train[0].Cond.AltitudeM,
		ds.OOD[0].Cond.Lighting, ds.OOD[0].Cond.Season, ds.OOD[0].Cond.AltitudeM)

	fmt.Fprintln(w, "\nSample scene ground truth ('='road, '#'building, '\"'vegetation, 'T'tree, 'c/C'cars, '!'humans):")
	fmt.Fprint(w, urban.AsciiRender(ds.Train[0].Labels, 64))
	return nil
}
