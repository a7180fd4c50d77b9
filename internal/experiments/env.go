// Package experiments regenerates every table, figure and quantitative
// claim of the paper (experiments E1–E10 in DESIGN.md): the severity and
// ground-risk tables, the SORA case-study numbers, the EL criteria
// assessment, the Figure 1 failure-injection matrix, dataset statistics,
// the Figure 4 segmentation/monitoring study, the baseline comparison, the
// sub-image timing argument, and the monitor ablations — plus the E12
// full-frame monitoring study that revisits the Section V-B sub-image
// restriction by tiling the frame into crop verdicts.
//
// The model-dependent experiments (E5, E7–E12) run as scenario fleets over
// a safeland.Engine: each scene is served by one Engine.Select (or
// missions share the Engine as their landing planner) across
// Config.Workers worker replicas that alias one frozen copy of the trained
// weights. Scenes come from the shared internal/scenario corpus — every
// Env in the process draws its dataset and fleet scenes from one
// content-addressed cache, so repeated Envs and repeated experiment runs
// reuse scenes instead of regenerating them, and Env.Fleet resolves each
// scene on the goroutine that serves it, overlapping the generation of one
// scene with the perception work on another.
// Per-scene seeding plus the monitor's per-call reseeding keep every
// report byte-identical to a sequential SelectBatch run, whatever the
// worker count — the parity pinned by TestE8ParallelMatchesSequential and
// TestFleetMatchesSelectBatch.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sync"

	"safeland"
	"safeland/internal/core"
	"safeland/internal/monitor"
	"safeland/internal/scenario"
	"safeland/internal/segment"
	"safeland/internal/uav"
	"safeland/internal/urban"
)

// Config scales the experiment suite. DefaultConfig reproduces the paper at
// full (CPU-feasible) scale; QuickConfig is a smoke-test scale for CI.
type Config struct {
	Seed int64
	// TrainScenes, TestScenes, OODScenes size the dataset.
	TrainScenes, TestScenes, OODScenes int
	// SceneSize is the generated scene side in pixels.
	SceneSize int
	// TrainSteps, TrainLR, CropSize configure model fitting.
	TrainSteps int
	TrainLR    float64
	CropSize   int
	// MCSamples is the Bayesian monitor sample count (paper: 10).
	MCSamples int
	// MonteCarloImpacts sizes the E2 impact simulation.
	MonteCarloImpacts int
	// CompareScenes sizes the E8 baseline comparison.
	CompareScenes int
	// MissionRepeats sizes the E5 failure matrix.
	MissionRepeats int
	// Workers is the Engine worker-pool size the model-dependent experiment
	// fleets (E5, E7–E12) fan out over; 0 picks safeland.DefaultWorkers().
	// Per-scene seeding and the monitor's per-call reseeding keep fleet
	// output byte-identical across worker counts.
	Workers int
	// Grid is the E11 scenario grid; a grid spanning no axis (the zero
	// value) falls back to scenario.DefaultAxes(). cmd/elbench shapes it
	// with -grid/-axes.
	Grid scenario.Axes
}

// DefaultConfig returns the full-scale configuration used by cmd/elbench.
func DefaultConfig() Config {
	return Config{
		Seed:              2021, // DSN 2021
		TrainScenes:       6,
		TestScenes:        4,
		OODScenes:         4,
		SceneSize:         192,
		TrainSteps:        800,
		TrainLR:           0.008,
		CropSize:          64,
		MCSamples:         10,
		MonteCarloImpacts: 4000,
		CompareScenes:     12,
		MissionRepeats:    3,
	}
}

// QuickConfig returns a reduced configuration for tests.
func QuickConfig() Config {
	return Config{
		Seed:              2021,
		TrainScenes:       3,
		TestScenes:        2,
		OODScenes:         2,
		SceneSize:         128,
		TrainSteps:        150,
		TrainLR:           0.01,
		CropSize:          64,
		MCSamples:         5,
		MonteCarloImpacts: 300,
		CompareScenes:     3,
		MissionRepeats:    1,
	}
}

// Env lazily builds and caches the expensive shared artifacts (dataset,
// trained model, pipeline) so experiments can run independently or as a
// batch without retraining.
type Env struct {
	Cfg Config
	Log io.Writer

	// Corpus is the scene cache every generated scene goes through.
	// NewEnv wires the process-wide scenario.Shared() corpus, so scene
	// and dataset generation is shared across Envs; override it (before
	// first use) to isolate an Env or to add an on-disk layer.
	Corpus *scenario.Corpus

	dsOnce    sync.Once
	dataset   *urban.Dataset
	dsSpecs   struct{ train, test, ood []scenario.Spec }
	modelOnce sync.Once
	model     *segment.Model
	pipeOnce  sync.Once
	pipeline  *core.Pipeline
}

// NewEnv builds an environment; log receives progress lines (nil discards).
func NewEnv(cfg Config, log io.Writer) *Env {
	if log == nil {
		log = io.Discard
	}
	return &Env{Cfg: cfg, Log: log, Corpus: scenario.Shared()}
}

// SceneConfig returns the generator settings for this environment.
func (e *Env) SceneConfig() urban.Config {
	cfg := urban.DefaultConfig()
	cfg.W, cfg.H = e.Cfg.SceneSize, e.Cfg.SceneSize
	return cfg
}

// Dataset returns the shared train/test/OOD split, resolving it through
// the scene corpus on first use. The specs mirror urban.BuildDataset's
// seeding exactly (baseSeed, +1000, +2000), so the split is byte-identical
// to a direct build — but a second Env with the same configuration serves
// every scene from cache instead of regenerating the dataset.
func (e *Env) Dataset() *urban.Dataset {
	e.dsOnce.Do(func() {
		fmt.Fprintf(e.Log, "[env] resolving dataset: %d train, %d test, %d OOD scenes (%dpx) via scene corpus\n",
			e.Cfg.TrainScenes, e.Cfg.TestScenes, e.Cfg.OODScenes, e.Cfg.SceneSize)
		cfg := e.SceneConfig()
		e.dsSpecs.train = scenario.Set(cfg, urban.DefaultConditions(), e.Cfg.TrainScenes, e.Cfg.Seed)
		e.dsSpecs.test = scenario.Set(cfg, urban.DefaultConditions(), e.Cfg.TestScenes, e.Cfg.Seed+1_000)
		e.dsSpecs.ood = scenario.Set(cfg, urban.SunsetConditions(), e.Cfg.OODScenes, e.Cfg.Seed+2_000)
		e.dataset = &urban.Dataset{
			Train: e.Corpus.Scenes(e.dsSpecs.train),
			Test:  e.Corpus.Scenes(e.dsSpecs.test),
			OOD:   e.Corpus.Scenes(e.dsSpecs.ood),
		}
	})
	return e.dataset
}

// datasetSpecs returns the corpus specs behind the dataset split, building
// the dataset if needed — how the fleets serve the held-out scenes again
// without regenerating them.
func (e *Env) datasetSpecs() (train, test, ood []scenario.Spec) {
	e.Dataset()
	return e.dsSpecs.train, e.dsSpecs.test, e.dsSpecs.ood
}

// Fleet serves one request per spec through the engine and returns the
// responses ordered by spec index. Each spec gets a goroutine that resolves
// its scene through the corpus, builds the request (build, or
// scenario.SceneRequest when nil) and serves it with Engine.Select, so scene
// generation overlaps perception, the corpus's singleflight still builds a
// shared scene once, and the engine's worker pool bounds the perception
// work in flight. The responses equal SelectBatch's over the materialized
// scenes, whatever the worker count.
func (e *Env) Fleet(ctx context.Context, eng *safeland.Engine, specs []scenario.Spec, build scenario.BuildRequest) []safeland.SelectResponse {
	if build == nil {
		build = scenario.SceneRequest
	}
	out := make([]safeland.SelectResponse, len(specs))
	fleetRun(len(specs), len(specs), func(i int) {
		out[i] = eng.Select(ctx, build(i, e.Corpus.Scene(specs[i])))
	})
	return out
}

// Model returns the shared trained MSDnet, training it on first use.
func (e *Env) Model() *segment.Model {
	e.modelOnce.Do(func() {
		ds := e.Dataset()
		mcfg := segment.DefaultConfig()
		mcfg.Seed = e.Cfg.Seed
		e.model = segment.New(mcfg)
		fmt.Fprintf(e.Log, "[env] training MSDnet (%d params, %d steps)\n",
			e.model.ParamCount(), e.Cfg.TrainSteps)
		stats := segment.Train(e.model, ds.Train, segment.TrainConfig{
			Steps:    e.Cfg.TrainSteps,
			Batch:    2,
			CropSize: e.Cfg.CropSize,
			LR:       e.Cfg.TrainLR,
			Seed:     e.Cfg.Seed + 1,
		})
		fmt.Fprintf(e.Log, "[env] training loss %.3f -> %.3f\n", stats.FirstLoss, stats.FinalLoss)
	})
	return e.model
}

// Pipeline returns the shared EL pipeline around the trained model.
func (e *Env) Pipeline() *core.Pipeline {
	e.pipeOnce.Do(func() {
		e.pipeline = core.NewPipeline(e.Model(), e.Cfg.Seed+2)
		e.pipeline.Monitor.Samples = e.Cfg.MCSamples
	})
	return e.pipeline
}

// Bayesian returns a monitor around the trained model with the configured
// sample count.
func (e *Env) Bayesian() *monitor.Bayesian {
	b := monitor.NewBayesian(e.Model(), e.Cfg.Seed+3)
	b.Samples = e.Cfg.MCSamples
	return b
}

// BayesianReplica returns a monitor around a private frozen-weights clone
// of the trained model. The clone aliases the shared parameter tensors but
// owns its per-layer caches and dropout RNGs, and the monitor seed matches
// Bayesian(), so replicas running concurrently produce verdicts identical
// to the shared monitor's.
func (e *Env) BayesianReplica() (*monitor.Bayesian, error) {
	m, err := e.Model().Clone()
	if err != nil {
		return nil, fmt.Errorf("experiments: cloning monitor replica: %w", err)
	}
	b := monitor.NewBayesian(m, e.Cfg.Seed+3)
	b.Samples = e.Cfg.MCSamples
	return b, nil
}

// GridAxes resolves the E11 scenario grid: Cfg.Grid when it spans at least
// one axis, the reference scenario.DefaultAxes() otherwise. A partially
// -configured grid is returned as-is — Axes.Enumerate rejects its empty
// axes with a descriptive error rather than running a vacuous fleet.
func (e *Env) GridAxes() scenario.Axes {
	g := e.Cfg.Grid
	if len(g.Layouts)+len(g.Densities)+len(g.Winds)+len(g.Failures)+len(g.Hours) > 0 {
		return g
	}
	return scenario.DefaultAxes()
}

// Workers resolves the fleet worker-pool size.
func (e *Env) Workers() int {
	if e.Cfg.Workers > 0 {
		return e.Cfg.Workers
	}
	return safeland.DefaultWorkers()
}

// System wraps the shared pipeline in the public facade so engines can be
// built around it. The pipeline (and its trained model) is the cached one;
// the wrapper itself is cheap.
func (e *Env) System() *safeland.System {
	return &safeland.System{Pipeline: e.Pipeline(), Spec: uav.MediDelivery()}
}

// Engine builds a pipeline-backed engine over the shared model at the
// configured worker count. Engines are built per call rather than cached:
// worker replicas share the frozen model weights, so construction costs
// per-layer scratch allocations only, and each experiment gets a pool
// sized by the Cfg.Workers in effect when it runs.
func (e *Env) Engine() (*safeland.Engine, error) {
	return e.EngineWith(safeland.PipelineSelector(), 0)
}

// EngineWith builds an engine over the shared model with an arbitrary
// selector backend — how the E8 strategy fleet runs every landing strategy
// behind the same SelectBatch surface. workers <= 0 uses Workers(). The
// engine knows nothing of the scene corpus feeding it: read e.Corpus.Stats
// for the cache counters (E11 asserts its grid dedup there). Extra options
// append after the shared ones — the E14 chaos fleet passes shard names,
// injectors and degraded mode.
func (e *Env) EngineWith(factory safeland.SelectorFactory, workers int, opts ...safeland.Option) (*safeland.Engine, error) {
	if workers <= 0 {
		workers = e.Workers()
	}
	base := []safeland.Option{
		safeland.WithSystem(e.System()),
		safeland.WithSelector(factory),
		safeland.WithWorkers(workers),
	}
	return safeland.NewEngine(append(base, opts...)...)
}

// Experiment is one registered paper artifact reproduction.
type Experiment struct {
	ID    string
	Title string
	Run   func(e *Env, w io.Writer) error
}

// All returns the experiment registry in presentation order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Title: "Table I — severity scale and casualty model", Run: RunE1},
		{ID: "E2", Title: "Table II — main ground risks, derived by Monte-Carlo impact simulation", Run: RunE2},
		{ID: "E3", Title: "Section III-D — MEDI DELIVERY physics and SORA assessment", Run: RunE3},
		{ID: "E4", Title: "Tables III/IV — EL criteria and implementation self-assessment", Run: RunE4},
		{ID: "E5", Title: "Figure 1 — safety-switch failure-injection matrix", Run: RunE5},
		{ID: "E6", Title: "Figure 3 — synthetic UAVid-like dataset statistics", Run: RunE6},
		{ID: "E7", Title: "Figure 4 — segmentation + runtime monitoring, in-distribution vs out-of-distribution", Run: RunE7},
		{ID: "E8", Title: "Section II-B.4 — landing strategy comparison (EL vs baselines)", Run: RunE8},
		{ID: "E9", Title: "Section V-B — Bayesian inference timing: sub-image vs full frame", Run: RunE9},
		{ID: "E10", Title: "Conclusion/future work — quantitative monitor study (τ, samples, σ, dropout)", Run: RunE10},
		{ID: "E11", Title: "Grid coverage — mission fleets over the full scenario axes (2022 populated-area validation)", Run: RunE11},
		{ID: "E12", Title: "Beyond Section V-B — full-frame Bayesian monitoring as tiled crop verdicts", Run: RunE12},
		{ID: "E13", Title: "Fleet service — descent sessions with temporal reuse vs per-frame recompute", Run: RunE13},
		{ID: "E14", Title: "Chaos drill — fleet serving under injected faults, degraded-mode FT fallback (2022 runtime-monitoring evaluation)", Run: RunE14},
	}
}

// RunByID runs one experiment by its ID.
func RunByID(id string, e *Env, w io.Writer) error {
	for _, exp := range All() {
		if exp.ID == id {
			fmt.Fprintf(w, "\n=== %s: %s ===\n", exp.ID, exp.Title)
			return exp.Run(e, w)
		}
	}
	return fmt.Errorf("experiments: unknown experiment %q", id)
}

// RunAll runs every experiment in order, stopping at the first error.
func RunAll(e *Env, w io.Writer) error {
	for _, exp := range All() {
		fmt.Fprintf(w, "\n=== %s: %s ===\n", exp.ID, exp.Title)
		if err := exp.Run(e, w); err != nil {
			return fmt.Errorf("%s: %w", exp.ID, err)
		}
	}
	return nil
}
