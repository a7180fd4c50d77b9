package experiments

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"safeland/internal/hazard"
	"safeland/internal/scenario"
)

// TestMarginalsByAggregatesExactly pins the per-axis marginal aggregation
// on known synthetic outcomes: counts, fatality sums, severity histograms
// and group order must match exactly.
func TestMarginalsByAggregatesExactly(t *testing.T) {
	values := []string{"a", "b", "a", "c", "b", "a"}
	outs := []gridOutcome{
		{Confirmed: true, Landed: true, Impacted: true, Severity: hazard.Minor, Fatalities: 0.25},
		{Rejected: true, Impacted: true, Severity: hazard.Catastrophic, Fatalities: 1.5},
		{Confirmed: true, Impacted: true, Severity: hazard.Major, Fatalities: 0.5},
		{}, // no candidates, no impact
		{Confirmed: true, Landed: true, Impacted: true, Severity: hazard.Negligible},
		{Rejected: true, Impacted: true, Severity: hazard.Minor, Fatalities: 0.25},
	}
	want := []axisMarginal{
		{Value: "a", N: 3, Confirmed: 2, Rejected: 1, Landed: 1, Fatalities: 1.0,
			Severities: map[hazard.Severity]int{hazard.Minor: 2, hazard.Major: 1}},
		{Value: "b", N: 2, Confirmed: 1, Rejected: 1, Landed: 1, Fatalities: 1.5,
			Severities: map[hazard.Severity]int{hazard.Catastrophic: 1, hazard.Negligible: 1}},
		{Value: "c", N: 1, Severities: map[hazard.Severity]int{}},
	}
	got := marginalsBy(values, outs)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("marginals mismatch:\n got %+v\nwant %+v", got, want)
	}

	// Modal severity: plain majority for "a", tie broken toward the higher
	// level for "b", Negligible for the impact-free "c".
	for i, wantSev := range []hazard.Severity{hazard.Minor, hazard.Catastrophic, hazard.Negligible} {
		if got[i].ModalSeverity() != wantSev {
			t.Errorf("group %q modal severity = %s, want %s", got[i].Value, got[i].ModalSeverity(), wantSev)
		}
	}

	if len(marginalsBy(nil, nil)) != 0 {
		t.Fatal("empty input must produce no marginals")
	}
}

// TestE11ParallelMatchesSequential is the grid-fleet acceptance check,
// mirroring the E8/E9 pins: the E11 report must be byte-identical whether
// the scenario fleet runs on one Engine worker or four. E11 prints no
// wall-clock measurements, so the comparison is raw bytes (maskTimings is
// applied anyway so a future timing line fails loudly in review, not here).
func TestE11ParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("trained-model experiment")
	}
	env := quickEnv(t)
	restoreWorkers, restoreGrid := env.Cfg.Workers, env.Cfg.Grid
	defer func() { env.Cfg.Workers, env.Cfg.Grid = restoreWorkers, restoreGrid }()
	// A 2-per-axis sub-grid (32 scenarios, 8 scenes) keeps the double run
	// test-budget friendly; it still spans every axis, which is what the
	// determinism pin needs.
	env.Cfg.Grid = scenario.DefaultAxes().Truncate(2)

	var seq, par bytes.Buffer
	env.Cfg.Workers = 1
	if err := RunE11(env, &seq); err != nil {
		t.Fatal(err)
	}
	env.Cfg.Workers = 4
	if err := RunE11(env, &par); err != nil {
		t.Fatal(err)
	}
	if maskTimings(seq.String()) != maskTimings(par.String()) {
		t.Errorf("E11 report diverges between 1 and 4 workers:\n--- sequential ---\n%s\n--- 4 workers ---\n%s",
			seq.String(), par.String())
	}
}

// TestE11EngineStatsGridDedup pins the 243→27 dedup on the production path
// for the default grid: the fleet's scene traffic, observed through the
// corpus's own counters (Corpus.Stats), must be exactly 27 generations and
// 216 in-memory cache hits — one generation per layout × density × hour
// cell, every wind × failure variant served from cache — while the engine
// serves all 243 selections.
func TestE11EngineStatsGridDedup(t *testing.T) {
	if testing.Short() {
		t.Skip("trained-model experiment")
	}
	env := quickEnv(t)
	env.Model() // resolve dataset + model on the shared corpus first
	restoreCorpus := env.Corpus
	defer func() { env.Corpus = restoreCorpus }()
	env.Corpus = scenario.NewCorpus() // isolate the grid's cache traffic

	axes := scenario.DefaultAxes()
	scens, err := axes.Enumerate(env.Cfg.SceneSize, env.Cfg.Seed+110)
	if err != nil {
		t.Fatal(err)
	}
	if len(scens) != 243 || axes.DistinctScenes() != 27 {
		t.Fatalf("default grid is %d scenarios / %d scenes, want 243 / 27", len(scens), axes.DistinctScenes())
	}
	eng, err := env.Engine()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := gridSelect(env, eng, scens); err != nil {
		t.Fatal(err)
	}
	cs := env.Corpus.Stats()
	if cs.Generated != 27 {
		t.Errorf("default grid generated %d scenes, want 27", cs.Generated)
	}
	if cs.Hits != 216 {
		t.Errorf("default grid hit the cache %d times, want 216", cs.Hits)
	}
	if cs.DiskHits != 0 {
		t.Errorf("in-memory corpus reported %d disk hits", cs.DiskHits)
	}
	if cs.Resident != 27 {
		t.Errorf("corpus holds %d scenes, want 27", cs.Resident)
	}
	st := eng.Stats()
	if st.Requests != 243 || st.Served != 243 || st.Failed != 0 {
		t.Errorf("engine counters = %+v, want 243 requests / 243 served / 0 failed", st)
	}
}

func benchmarkExperimentE11(b *testing.B, workers int) {
	sharedEnv.once.Do(func() {
		sharedEnv.env = NewEnv(QuickConfig(), nil)
	})
	env := sharedEnv.env
	restoreWorkers, restoreGrid := env.Cfg.Workers, env.Cfg.Grid
	defer func() { env.Cfg.Workers, env.Cfg.Grid = restoreWorkers, restoreGrid }()
	env.Cfg.Workers = workers
	// The benchmark grid spans every axis at two variants each (32
	// scenarios, 8 scenes): enough fan-out to expose pool scaling without
	// paying the full 243-scenario fleet per iteration.
	env.Cfg.Grid = scenario.DefaultAxes().Truncate(2)
	env.Model() // pay the training fixture outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := RunE11(env, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExperimentE11Workers{1,4,8} trace the grid-fleet scaling curve
// (make bench lands them in BENCH_grid.json); reports stay byte-identical
// across worker counts (TestE11ParallelMatchesSequential).
func BenchmarkExperimentE11Workers1(b *testing.B) { benchmarkExperimentE11(b, 1) }

func BenchmarkExperimentE11Workers4(b *testing.B) { benchmarkExperimentE11(b, 4) }

func BenchmarkExperimentE11Workers8(b *testing.B) { benchmarkExperimentE11(b, 8) }
