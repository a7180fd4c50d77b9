package experiments

import (
	"context"
	"fmt"
	"io"

	"safeland"
	"safeland/internal/hazard"
	"safeland/internal/scenario"
	"safeland/internal/uav"
	"safeland/internal/urban"
)

// RunE11 is the grid-coverage experiment: the full scenario.Axes operating
// grid (urban layout × density × wind × failure profile × time-of-day),
// flown as a failure-injection mission fleet. It is the populated-area
// validation the paper's follow-ups (Tovanche-Picón et al. 2022, Guerin et
// al. 2022) run where the paper itself certifies on hand-picked scenes —
// and the first workload that exercises the whole serving stack at grid
// scale: every scenario's scene comes out of the shared corpus into one
// Engine.Select for zone selection, then the E5 mission machinery flies the
// scenario under its own wind regime and failure profile with that
// selection as its landing plan.
//
// The report tabulates per-axis marginals — zone availability, monitor
// rejection rate, safe-landing rate, E[fatality] — and closes with the
// corpus dedup check: wind and failure variants share scene specs, so the
// grid's scenario lookups must collapse to layout × density × hour distinct
// scenes (verified against the corpus's own counters, Corpus.Stats, read
// around the fleet; an experiment that regenerated scenes per scenario
// would fail here, not just in unit tests). Everything printed is
// deterministic: per-scenario wind seeds, ordered collection and the
// monitor's per-call reseeding keep the report byte-identical whatever the
// worker count — the parity pinned by TestE11ParallelMatchesSequential.
func RunE11(e *Env, w io.Writer) error {
	axes := e.GridAxes()
	scens, err := axes.Enumerate(e.Cfg.SceneSize, e.Cfg.Seed+110)
	if err != nil {
		return fmt.Errorf("E11: %w", err)
	}
	eng, err := e.Engine()
	if err != nil {
		return fmt.Errorf("E11: %w", err)
	}
	defer eng.Close()

	fmt.Fprintf(w, "Scenario grid: %d layouts x %d densities x %d winds x %d failures x %d hours = %d scenarios (%dpx scenes).\n",
		len(axes.Layouts), len(axes.Densities), len(axes.Winds), len(axes.Failures), len(axes.Hours),
		len(scens), e.Cfg.SceneSize)
	fmt.Fprintln(w, "Each scenario serves its scene from the corpus through Engine.Select for zone")
	fmt.Fprintln(w, "selection, then flies a failure-injection mission under the scenario's wind and")
	fmt.Fprintln(w, "failure profile with that selection as its landing plan.")

	before, corpusBefore := eng.Stats(), e.Corpus.Stats()
	scenes, resps, err := gridSelect(e, eng, scens)
	if err != nil {
		return err
	}
	outs := gridMissions(context.Background(), e, scens, scenes, resps)
	after, corpusAfter := eng.Stats(), e.Corpus.Stats()

	// gridSelect aborts on the first failed response, so reaching this
	// point means every selection succeeded — the report says exactly that
	// rather than printing a failed-count that can only ever be zero.
	fmt.Fprintf(w, "\nEngine served all %d grid selections.\n", after.Served-before.Served)

	fmt.Fprintln(w, "\nPer-axis marginals (avail = zone confirmed; reject = monitor refused every")
	fmt.Fprintln(w, "candidate; land = EL touchdown at Minor severity or below; E[fatal] = mean")
	fmt.Fprintln(w, "expected fatalities per mission; modal sev = most common impact severity):")
	for _, axis := range []struct {
		title string
		value func(scenario.Scenario) string
	}{
		{"urban layout", func(sc scenario.Scenario) string { return sc.Layout.Name }},
		{"density", func(sc scenario.Scenario) string { return sc.Density.Name }},
		{"wind", func(sc scenario.Scenario) string { return sc.Wind.Name }},
		{"failure profile", func(sc scenario.Scenario) string { return sc.Failure.Name }},
		{"time of day", scenario.Scenario.HourName},
	} {
		values := make([]string, len(scens))
		for i, sc := range scens {
			values[i] = axis.value(sc)
		}
		fmt.Fprintf(w, "\n  axis: %s\n", axis.title)
		fmt.Fprintf(w, "  %-14s %5s %8s %8s %8s %10s %13s\n",
			"value", "n", "avail", "reject", "land", "E[fatal]", "modal sev")
		for _, m := range marginalsBy(values, outs) {
			n := float64(m.N)
			fmt.Fprintf(w, "  %-14s %5d %7.1f%% %7.1f%% %7.1f%% %10.4f %13s\n",
				m.Value, m.N, 100*float64(m.Confirmed)/n, 100*float64(m.Rejected)/n,
				100*float64(m.Landed)/n, m.Fatalities/n, m.ModalSeverity())
		}
	}

	// The dedup assertion on the production path: the fleet's corpus
	// lookups (one per scenario, whether generated, memory hit or disk
	// hit) must collapse to at most the grid's distinct scene specs. The
	// measured counters go to the progress log — they depend on what
	// earlier experiments already cached, so the report itself states
	// only the grid-derived facts and the verification outcome.
	delta := scenario.Stats{
		Generated: corpusAfter.Generated - corpusBefore.Generated,
		Hits:      corpusAfter.Hits - corpusBefore.Hits,
		DiskHits:  corpusAfter.DiskHits - corpusBefore.DiskHits,
	}
	fmt.Fprintf(e.Log, "[E11] corpus delta: %d generated, %d cache hits, %d disk hits over %d lookups\n",
		delta.Generated, delta.Hits, delta.DiskHits, delta.Lookups())
	if delta.Lookups() != int64(len(scens)) {
		return fmt.Errorf("E11: fleet performed %d corpus lookups for %d scenarios", delta.Lookups(), len(scens))
	}
	if built := delta.Generated + delta.DiskHits; built > int64(axes.DistinctScenes()) {
		return fmt.Errorf("E11: grid dedup failed: %d scenes built/loaded, want at most %d distinct (%d scenarios)",
			built, axes.DistinctScenes(), len(scens))
	}
	fmt.Fprintf(w, "\nScene corpus dedup verified: %d scenario lookups collapsed onto at most %d\n",
		len(scens), axes.DistinctScenes())
	fmt.Fprintf(w, "distinct scenes (wind x failure collapse factor %dx) — scene corpus counters.\n",
		len(axes.Winds)*len(axes.Failures))
	return nil
}

// gridSelect serves the scenarios' scenes from the corpus through the
// engine (Env.Fleet: one Engine.Select per scenario) and returns the scenes
// alongside the per-scenario selection responses. Scenes are captured from the
// request builder, so the fleet's own lookups are the only corpus traffic
// the experiment generates — what makes the dedup accounting exact.
func gridSelect(e *Env, eng *safeland.Engine, scens []scenario.Scenario) ([]*urban.Scene, []safeland.SelectResponse, error) {
	specs := make([]scenario.Spec, len(scens))
	for i, sc := range scens {
		specs[i] = sc.Spec
	}
	scenes := make([]*urban.Scene, len(specs))
	capture := func(i int, s *urban.Scene) safeland.SelectRequest {
		scenes[i] = s
		return scenario.SceneRequest(i, s)
	}
	resps := e.Fleet(context.Background(), eng, specs, capture)
	for i, resp := range resps {
		if resp.Err != nil {
			return nil, nil, fmt.Errorf("E11 scenario %q: %w", scens[i].Name, resp.Err)
		}
	}
	return scenes, resps, nil
}

// plannedZone replays a fleet's selection as a uav.LandingPlanner:
// the mission's EL maneuver flies to the zone the Engine confirmed for the
// scenario's scene, and a monitor rejection (ok=false) escalates to flight
// termination — exactly the Figure 1 "no safe EL available" branch.
type plannedZone struct {
	x, y float64
	ok   bool
}

func (p plannedZone) PlanLanding(context.Context, *urban.Scene, float64, float64) (float64, float64, bool) {
	return p.x, p.y, p.ok
}

// gridOutcome is one scenario's combined selection + mission outcome — the
// unit the per-axis marginals aggregate.
type gridOutcome struct {
	// Confirmed is true when the fleet's selection confirmed a zone.
	Confirmed bool
	// Rejected is true when the monitor saw at least one candidate and
	// confirmed none (a refusal, as opposed to "no candidates proposed").
	Rejected bool
	// Landed is true for a safe emergency landing: the EL maneuver touched
	// down at Minor severity or below.
	Landed bool
	// Impacted and Severity describe the touchdown (Severity is meaningful
	// only when Impacted).
	Impacted bool
	Severity hazard.Severity
	// Fatalities is the impact's expected-fatalities figure.
	Fatalities float64
}

// gridMissions flies one mission per scenario as a fleet: each (scene,
// wind, failure, hour) combination runs on its own goroutine with its
// deterministic per-scenario wind seed, and outcomes are collected by index
// — the same discipline that keeps every fleet report byte-identical to a
// sequential run.
func gridMissions(ctx context.Context, e *Env, scens []scenario.Scenario, scenes []*urban.Scene, resps []safeland.SelectResponse) []gridOutcome {
	spec := uav.MediDelivery()
	outs := make([]gridOutcome, len(scens))
	fleetRun(e.Workers(), len(scens), func(i int) {
		sc := scens[i]
		res := resps[i].Result
		plan := plannedZone{ok: res.Confirmed}
		if res.Confirmed {
			plan.x, plan.y = res.Zone.CenterM(scenes[i].MPP)
		}
		m := missionOn(scenes[i], spec, plan, sc.Hour)
		m.Wind = sc.Wind.New(sc.WindSeed())
		m.Failures = []uav.TimedFailure{sc.Failure.Injection()}
		out := m.RunCtx(ctx)
		outs[i] = gridOutcome{
			Confirmed:  res.Confirmed,
			Rejected:   !res.Confirmed && len(res.Trials) > 0,
			Landed:     out.Maneuver == uav.EmergencyLanding && out.Impacted && out.Assessment.Severity <= hazard.Minor,
			Impacted:   out.Impacted,
			Severity:   out.Assessment.Severity,
			Fatalities: out.Assessment.ExpectedFatalities,
		}
	})
	return outs
}

// axisMarginal aggregates the outcomes sharing one axis value.
type axisMarginal struct {
	Value                          string
	N, Confirmed, Rejected, Landed int
	// Fatalities sums expected fatalities over the group's missions.
	Fatalities float64
	// Severities histograms the impact severities of the group.
	Severities map[hazard.Severity]int
}

// ModalSeverity returns the group's most common impact severity (ties break
// toward the higher level; Negligible when the group never impacted).
func (m axisMarginal) ModalSeverity() hazard.Severity { return modalSeverity(m.Severities) }

// marginalsBy groups outcome i under values[i], preserving first-appearance
// order — with enumeration order that is exactly the axis's variant order,
// so the marginal tables line up with the configured grid.
func marginalsBy(values []string, outs []gridOutcome) []axisMarginal {
	idx := map[string]int{}
	var ms []axisMarginal
	for i, out := range outs {
		v := values[i]
		j, ok := idx[v]
		if !ok {
			j = len(ms)
			idx[v] = j
			ms = append(ms, axisMarginal{Value: v, Severities: map[hazard.Severity]int{}})
		}
		m := &ms[j]
		m.N++
		if out.Confirmed {
			m.Confirmed++
		}
		if out.Rejected {
			m.Rejected++
		}
		if out.Landed {
			m.Landed++
		}
		if out.Impacted {
			m.Severities[out.Severity]++
		}
		m.Fatalities += out.Fatalities
	}
	return ms
}
