package experiments

import (
	"bytes"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"safeland/internal/nn"
	"safeland/internal/scenario"
)

var sharedEnv struct {
	once sync.Once
	env  *Env
}

// quickEnv returns one shared quick-scale environment: the trained model is
// reused across experiment tests.
func quickEnv(t *testing.T) *Env {
	t.Helper()
	sharedEnv.once.Do(func() {
		sharedEnv.env = NewEnv(QuickConfig(), nil)
	})
	return sharedEnv.env
}

func TestRegistryComplete(t *testing.T) {
	exps := All()
	wantIDs := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14"}
	if len(exps) != len(wantIDs) {
		t.Fatalf("registry has %d experiments, want %d (E1–E14)", len(exps), len(wantIDs))
	}
	seen := map[string]bool{}
	for i, exp := range exps {
		if exp.ID != wantIDs[i] {
			t.Errorf("experiment %d has ID %q, want %q", i, exp.ID, wantIDs[i])
		}
		if exp.Title == "" || exp.Run == nil {
			t.Errorf("experiment %s incomplete", exp.ID)
		}
		if seen[exp.ID] {
			t.Errorf("duplicate experiment ID %s", exp.ID)
		}
		seen[exp.ID] = true
	}
}

func TestRunByIDUnknown(t *testing.T) {
	var buf bytes.Buffer
	if err := RunByID("E99", quickEnv(t), &buf); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

func TestE1Severity(t *testing.T) {
	var buf bytes.Buffer
	if err := RunE1(quickEnv(t), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Catastrophic", "Multiple fatal injuries", "8230"} {
		if !strings.Contains(out, want) {
			t.Errorf("E1 output missing %q", want)
		}
	}
}

func TestE2TableII(t *testing.T) {
	var buf bytes.Buffer
	if err := RunE2(quickEnv(t), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "WARNING") {
		t.Errorf("E2 derived severities diverge from Table II:\n%s", out)
	}
	for _, id := range []string{"R1", "R2", "R3", "R4", "R5"} {
		if !strings.Contains(out, id) {
			t.Errorf("E2 missing outcome %s", id)
		}
	}
}

func TestE3SORANumbers(t *testing.T) {
	var buf bytes.Buffer
	if err := RunE3(quickEnv(t), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"48.5", "8.23", "final GRC 6", "SAIL V", "final GRC 7", "SAIL VI", "final GRC 4"} {
		if !strings.Contains(out, want) {
			t.Errorf("E3 output missing %q:\n%s", want, out)
		}
	}
}

func TestE4Criteria(t *testing.T) {
	var buf bytes.Buffer
	if err := RunE4(quickEnv(t), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table III", "Table IV", "EL-A-M3", "robustness"} {
		if !strings.Contains(out, want) {
			t.Errorf("E4 output missing %q", want)
		}
	}
}

func TestE6DatasetStats(t *testing.T) {
	var buf bytes.Buffer
	if err := RunE6(quickEnv(t), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"road", "building", "sunset", "="} {
		if !strings.Contains(out, want) {
			t.Errorf("E6 output missing %q", want)
		}
	}
}

// TestE5E7E8E9E10 exercises the model-dependent experiments end to end at
// quick scale; correctness of the numbers is asserted loosely (shapes), the
// full-scale run is cmd/elbench's job.
func TestE5E7E8E9E10(t *testing.T) {
	if testing.Short() {
		t.Skip("trained-model experiments")
	}
	env := quickEnv(t)
	for _, id := range []string{"E7", "E5", "E8", "E9", "E10"} {
		var buf bytes.Buffer
		if err := RunByID(id, env, &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s produced no output", id)
		}
		t.Logf("%s output:\n%s", id, buf.String())
	}
}

// TestE12FullFrame runs the full-frame monitoring comparison at quick
// scale: the in-experiment parity spot check must pass, no tile may fall
// back to the naive path on the standard model shape, and everything but
// the wall-clock lines must be deterministic across runs.
func TestE12FullFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("trained-model experiment")
	}
	env := quickEnv(t)
	var first, second bytes.Buffer
	if err := RunE12(env, &first); err != nil {
		t.Fatal(err)
	}
	out := first.String()
	for _, want := range []string{"crop-only", "full-frame", "Parity spot check", "acceptance budget", "disputed"} {
		if !strings.Contains(out, want) {
			t.Errorf("E12 output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "WARNING") {
		t.Errorf("E12 tiles fell back to the naive per-crop path:\n%s", out)
	}
	if err := RunE12(env, &second); err != nil {
		t.Fatal(err)
	}
	if maskTimings(first.String()) != maskTimings(second.String()) {
		t.Errorf("E12 report not deterministic:\n--- first ---\n%s\n--- second ---\n%s",
			first.String(), second.String())
	}
}

// TestE13Sessions runs the descent-session comparison at quick scale: the
// in-experiment reuse-disabled parity check must pass, the temporal fast
// path must actually engage somewhere in the splits, and everything but
// the wall-clock figures must be deterministic across runs.
func TestE13Sessions(t *testing.T) {
	if testing.Short() {
		t.Skip("trained-model experiment")
	}
	env := quickEnv(t)
	var first, second bytes.Buffer
	if err := RunE13(env, &first); err != nil {
		t.Fatal(err)
	}
	out := first.String()
	for _, want := range []string{"session", "Parity spot check", "agreement", "Engine stats"} {
		if !strings.Contains(out, want) {
			t.Errorf("E13 output missing %q:\n%s", want, out)
		}
	}
	if err := RunE13(env, &second); err != nil {
		t.Fatal(err)
	}
	if maskTimings(first.String()) != maskTimings(second.String()) {
		t.Errorf("E13 report not deterministic:\n--- first ---\n%s\n--- second ---\n%s",
			first.String(), second.String())
	}
	t.Logf("E13 output:\n%s", out)
}

// descentTableBlock extracts the per-split descent table (header line plus
// its rows) from an experiment report — the block E14's fault-free arm
// must reproduce byte-identically from E13.
func descentTableBlock(t *testing.T, out string) string {
	t.Helper()
	lines := strings.Split(out, "\n")
	for i, l := range lines {
		if !strings.HasPrefix(l, "  split") {
			continue
		}
		j := i + 1
		for j < len(lines) && (strings.HasPrefix(lines[j], "  in-distribution") || strings.HasPrefix(lines[j], "  OOD")) {
			j++
		}
		return strings.Join(lines[i:j], "\n")
	}
	t.Fatalf("no descent table in output:\n%s", out)
	return ""
}

// TestE14ChaosDrill runs the chaos drill at quick scale. The in-experiment
// assertions already enforce the serving contract (zero hard-failed
// frames, degraded verdicts never confirmed, honest fleet counters); here
// we additionally pin the fault-free arm byte-identical to E13's table
// (timings masked — the numbers that survive masking are the verdicts),
// check the published schedule actually appears, and pin the whole report
// deterministic across runs.
func TestE14ChaosDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("trained-model experiment")
	}
	env := quickEnv(t)
	var e13, first, second bytes.Buffer
	if err := RunE13(env, &e13); err != nil {
		t.Fatal(err)
	}
	if err := RunE14(env, &first); err != nil {
		t.Fatal(err)
	}
	out := first.String()
	for _, want := range []string{
		"Published fault schedule", "shard-blackout@shard0", "Chaos arm",
		"Fleet counters", "Zero hard-failed frames", "degraded",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("E14 output missing %q:\n%s", want, out)
		}
	}
	ffTable := descentTableBlock(t, out)
	e13Table := descentTableBlock(t, e13.String())
	if maskTimings(ffTable) != maskTimings(e13Table) {
		t.Errorf("E14 fault-free arm diverges from E13's table:\n--- E13 ---\n%s\n--- E14 ---\n%s",
			e13Table, ffTable)
	}
	if err := RunE14(env, &second); err != nil {
		t.Fatal(err)
	}
	if maskTimings(first.String()) != maskTimings(second.String()) {
		t.Errorf("E14 report not deterministic:\n--- first ---\n%s\n--- second ---\n%s",
			first.String(), second.String())
	}
	t.Logf("E14 output:\n%s", out)
}

// TestE8ParallelMatchesSequential is the fleet-layer acceptance check: the
// E8 strategy-comparison report must be byte-identical whether the scene
// fleet runs on one Engine worker or four. The shared trained model is
// reused across both runs; only Cfg.Workers differs.
func TestE8ParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("trained-model experiment")
	}
	env := quickEnv(t)
	restore := env.Cfg.Workers
	defer func() { env.Cfg.Workers = restore }()

	var seq, par bytes.Buffer
	env.Cfg.Workers = 1
	if err := RunE8(env, &seq); err != nil {
		t.Fatal(err)
	}
	env.Cfg.Workers = 4
	if err := RunE8(env, &par); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Errorf("E8 report diverges between 1 and 4 workers:\n--- sequential ---\n%s\n--- 4 workers ---\n%s",
			seq.String(), par.String())
	}
}

// TestExperimentsStreamMatchesBatch is the streaming-migration acceptance
// check at the experiments layer: the E8 and E9 reports produced by
// streaming scene fleets through Corpus.Stream + Engine.Serve must be
// byte-identical to the materialized SelectBatch path, at 1 worker and at
// a pool (E9's wall-clock lines are masked — they measure, not report,
// determinism).
func TestExperimentsStreamMatchesBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("trained-model experiment")
	}
	env := quickEnv(t)
	restoreWorkers, restoreBatch := env.Cfg.Workers, env.batchFleet
	defer func() { env.Cfg.Workers, env.batchFleet = restoreWorkers, restoreBatch }()

	runs := []struct {
		name    string
		workers int
		batch   bool
	}{
		{"batch-1", 1, true},
		{"stream-1", 1, false},
		{"batch-4", 4, true},
		{"stream-4", 4, false},
	}
	// E8 prints no measurements: every run — batch or stream, 1 or 4
	// workers — must be byte-identical.
	var e8Ref string
	for _, r := range runs {
		env.Cfg.Workers, env.batchFleet = r.workers, r.batch
		var buf bytes.Buffer
		if err := RunE8(env, &buf); err != nil {
			t.Fatalf("E8 %s: %v", r.name, err)
		}
		if e8Ref == "" {
			e8Ref = buf.String()
			continue
		}
		if buf.String() != e8Ref {
			t.Errorf("E8 %s report diverges:\n--- %s ---\n%s\n--- reference ---\n%s",
				r.name, r.name, buf.String(), e8Ref)
		}
	}

	// E9's report shape depends on the worker count (the pool pass and
	// speedup line only exist with workers > 1), so stream is compared to
	// batch at each count, with the wall-clock figures masked.
	for _, workers := range []int{1, 4} {
		var byMode [2]string
		for mode, batch := range []bool{true, false} {
			env.Cfg.Workers, env.batchFleet = workers, batch
			var buf bytes.Buffer
			if err := RunE9(env, &buf); err != nil {
				t.Fatalf("E9 workers=%d batch=%v: %v", workers, batch, err)
			}
			byMode[mode] = maskTimings(buf.String())
		}
		if byMode[0] != byMode[1] {
			t.Errorf("E9 stream diverges from batch at %d workers:\n--- batch ---\n%s\n--- stream ---\n%s",
				workers, byMode[0], byMode[1])
		}
	}
}

// timingRe matches Go duration strings (multi-unit alternatives ordered
// longest-first so "800ms" doesn't half-match as "800m"+"s"), their %10v
// padding, speedup/ratio factors and the GOMAXPROCS figure — the measured
// (non-deterministic) parts of E9.
var timingRe = regexp.MustCompile(`\s*(\d+(\.\d+)?(ms|µs|ns|h|m|s))+|\d+(\.\d+)?x|GOMAXPROCS \d+`)

func maskTimings(s string) string { return timingRe.ReplaceAllString(s, "•") }

// TestRepeatedEnvHitsSceneCache pins the shared-generation guarantee: two
// Envs with the same configuration resolve their datasets from one corpus,
// and the second pays zero scene generations.
func TestRepeatedEnvHitsSceneCache(t *testing.T) {
	corpus := scenario.NewCorpus()

	first := NewEnv(QuickConfig(), nil)
	first.Corpus = corpus
	first.Dataset()
	st := corpus.Stats()
	wantScenes := int64(first.Cfg.TrainScenes + first.Cfg.TestScenes + first.Cfg.OODScenes)
	if st.Generated != wantScenes {
		t.Fatalf("first env generated %d scenes, want %d", st.Generated, wantScenes)
	}

	second := NewEnv(QuickConfig(), nil)
	second.Corpus = corpus
	ds := second.Dataset()
	st2 := corpus.Stats()
	if st2.Generated != wantScenes {
		t.Fatalf("repeated env regenerated scenes: %d generations, want %d", st2.Generated, wantScenes)
	}
	if st2.Hits-st.Hits != wantScenes {
		t.Fatalf("repeated env hit the cache %d times, want %d", st2.Hits-st.Hits, wantScenes)
	}
	if ds.Train[0] != first.Dataset().Train[0] {
		t.Fatal("repeated env did not receive the cached scene instances")
	}

	// NewEnv defaults to the process-wide shared corpus.
	if NewEnv(QuickConfig(), nil).Corpus != scenario.Shared() {
		t.Fatal("NewEnv does not default to the shared corpus")
	}
}

// TestEngineSharesEnvModelWeights pins the fleet memory layout at the
// experiments layer: an Env-built engine wraps the Env's cached trained
// model (no retraining per engine), and a monitor replica aliases its
// parameter tensors instead of copying them — worker replicas are built
// from the same frozen-weights Clone path.
func TestEngineSharesEnvModelWeights(t *testing.T) {
	if testing.Short() {
		t.Skip("trained-model experiment")
	}
	env := quickEnv(t)
	eng, err := env.Engine()
	if err != nil {
		t.Fatal(err)
	}
	src := env.Model()
	if eng.System().Pipeline.Model != src {
		t.Fatal("engine source system does not wrap the env's trained model")
	}
	rep, err := env.BayesianReplica()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Model == src {
		t.Fatal("monitor replica shares the model instance (must be a clone)")
	}
	if !nn.SharesParams(rep.Model.Net, src.Net) {
		t.Fatal("monitor replica copied the weights instead of sharing them")
	}
}

func TestFleetRunCoversAllIndicesOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		const n = 17
		var hits [n]atomic.Int32
		fleetRun(workers, n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
	fleetRun(4, 0, func(int) { t.Fatal("fn called for empty fleet") })
}
