package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"safeland"
	"safeland/internal/nn"
	"safeland/internal/scenario"
	"safeland/internal/urban"
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
	checkReportDigest(t, "E1", out)
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
	checkReportDigest(t, "E2", out)
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
	checkReportDigest(t, "E3", out)
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
	checkReportDigest(t, "E4", out)
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
	checkReportDigest(t, "E6", out)
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
		checkReportDigest(t, id, buf.String())
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
	checkReportDigest(t, "E12", out)
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
	checkReportDigest(t, "E13", out)
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
	checkReportDigest(t, "E14", out)
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

// TestFleetMatchesSelectBatch pins Env.Fleet against the materialized
// path: one Engine.Select per spec, each resolving its scene through a cold
// corpus on the goroutine that serves it, must answer exactly what a
// SelectBatch over Corpus.Scenes(specs) answers, request for request, at 1
// worker and at a pool, with the default request builder and a custom one.
// The spec list repeats scenes, so the cold corpus must also build each
// distinct scene once.
func TestFleetMatchesSelectBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("trained-model experiment")
	}
	env := quickEnv(t)
	distinct := scenario.Set(env.SceneConfig(), urban.DefaultConditions(), 4, env.Cfg.Seed+91)
	specs := append(append([]scenario.Spec{}, distinct...), distinct[2], distinct[0])
	noHome := func(_ int, s *urban.Scene) safeland.SelectRequest { return safeland.SelectRequest{Scene: s} }

	for _, b := range []struct {
		name  string
		build scenario.BuildRequest
	}{{"scene-request", nil}, {"no-home", noHome}} {
		build := b.build
		if build == nil {
			build = scenario.SceneRequest
		}
		reqs := make([]safeland.SelectRequest, len(specs))
		for i, s := range env.Corpus.Scenes(specs) {
			reqs[i] = build(i, s)
		}
		refEng, err := env.EngineWith(safeland.PipelineSelector(), 1)
		if err != nil {
			t.Fatal(err)
		}
		ref := refEng.SelectBatch(context.Background(), reqs)
		refEng.Close()

		for _, workers := range []int{1, 4} {
			eng, err := env.EngineWith(safeland.PipelineSelector(), workers)
			if err != nil {
				t.Fatal(err)
			}
			cold := &Env{Corpus: scenario.NewCorpus()}
			resps := cold.Fleet(context.Background(), eng, specs, b.build)
			eng.Close()
			if len(resps) != len(specs) {
				t.Fatalf("%s, %d workers: %d responses for %d specs", b.name, workers, len(resps), len(specs))
			}
			for i, resp := range resps {
				if resp.Err != nil || ref[i].Err != nil {
					t.Fatalf("%s, %d workers, spec %d: fleet err %v, batch err %v", b.name, workers, i, resp.Err, ref[i].Err)
				}
				if !reflect.DeepEqual(resp.Result, ref[i].Result) {
					t.Errorf("%s, %d workers, spec %d: fleet result diverges from SelectBatch:\n  fleet: %s\n  batch: %s",
						b.name, workers, i, resp.Result.Describe(), ref[i].Result.Describe())
				}
			}
			if st := cold.Corpus.Stats(); st.Generated != int64(len(distinct)) || st.Lookups() != int64(len(specs)) {
				t.Errorf("%s, %d workers: cold corpus generated %d scenes over %d lookups, want %d over %d",
					b.name, workers, st.Generated, st.Lookups(), len(distinct), len(specs))
			}
		}
	}
}

// timingRe matches Go duration strings (multi-unit alternatives ordered
// longest-first so "800ms" doesn't half-match as "800m"+"s"), their %10v
// padding, speedup/ratio factors and the GOMAXPROCS figure — the measured
// (non-deterministic) parts of E9.
var timingRe = regexp.MustCompile(`\s*(\d+(\.\d+)?(ms|µs|ns|h|m|s))+|\d+(\.\d+)?x|GOMAXPROCS \d+`)

func maskTimings(s string) string { return timingRe.ReplaceAllString(s, "•") }

// hostRe matches the figures of a report that the host, not the code,
// decides: E9's pool size, which defaults to the CPU count.
var hostRe = regexp.MustCompile(`\d+ worker\(s\)|at \d+ workers`)

// reportDigests pins the SHA-256 of each experiment's quick-scale report,
// timings and host figures masked. These reports are the paper's tables
// and figures, so a change that should leave them alone proves it here; a
// change that alters one on purpose updates its digest and says why. E11's
// is the 2-per-axis sub-grid that TestE11ParallelMatchesSequential runs.
var reportDigests = map[string]string{
	"E1":  "636c951cc9695a4991dd50dd9cd4806e6a7cb8faa1ee22cb0453744a67a3da6d",
	"E2":  "b34ce93e7f923a3aa0e1c2ed170dacf903baa72693e7efee0ab645199812d0cf",
	"E3":  "942d4e9772ba5c40702fb418519c749c13d5e08d3bb90fc19ad4c735f6abcfdf",
	"E4":  "be0a4b4dc8ec25a7d7c89543c494812008043eb9ba7a58f37fdbe586faf3c127",
	"E5":  "71457990e5b17d2359bbccfcaef1982e9cd387662449e9f61ecc9682df2669e5",
	"E6":  "416c9fcfc95f304e2b8e8adc26011888655d298da4884199f8f7f66bb1661952",
	"E7":  "ee210db36e8f82e4467ccf26322b14b2e458bb10ee63abb94c6661c8e9276fcf",
	"E8":  "d12ab07028784233bbf4a53f89e3abd80d0a53239e493a9c7497e420c5c1111e",
	"E9":  "c0f9dd63418fc1c0f61c5f494bd5c6d5a0c4a9fdc1ea5ace433e9c69f34b34e4",
	"E10": "1319efd05b8fe49b420ca2f6e03c38c8ea1bd84f8d2614896cdb650e8d71b980",
	"E11": "db6e34b8abff19be3e05cc6b8fec026a04f3a1d1952fbc8f4942e29510ce160a",
	"E12": "490d1a0905a4dd954f4ba0a7599ade5ec590e7b0280f99c44f3bf3842d8dd9cc",
	"E13": "9c4dbd144d59e03322872b109b4c73b80a32baf9507ad27645908e2261e1b5cd",
	"E14": "4331201dfba8345232059765686b6e8350c2c0d7d1033398efcbb6dc3b6f9c1c",
}

// checkReportDigest compares a report with its pinned digest. It runs on
// amd64 only: on arm64 the training path fuses multiply-adds, so the quick
// model's bits, and with them every report, may differ.
func checkReportDigest(t *testing.T, id, report string) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		return
	}
	sum := sha256.Sum256([]byte(hostRe.ReplaceAllString(maskTimings(report), "•")))
	if got := hex.EncodeToString(sum[:]); got != reportDigests[id] {
		t.Errorf("%s report digest %s, pinned %q: the report changed:\n%s", id, got, reportDigests[id], report)
	}
}

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
