// Package safeland is a Go reproduction of "Certifying Emergency Landing
// for Safe Urban UAV" (Guerin, Delmas, Guiochet — DSN 2021): a certifiable
// Emergency Landing (EL) function for urban UAVs built from semantic
// segmentation, a Bayesian runtime monitor, a decision module, a SORA v2.0
// assessment engine, and the simulation substrates needed to evaluate all
// of it (procedural urban scenes, flight dynamics, casualty model).
//
// This root package is the high-level facade. Its center is the Engine: a
// context-aware, concurrent request/response API for landing-zone
// selection. Construct one with functional options, then serve frames
// through explicit request/response types:
//
//	eng, err := safeland.NewEngine(
//		safeland.WithSeed(2021),
//		safeland.WithMonitorSamples(10),
//		safeland.WithWorkers(4),
//	)
//	resp := eng.Select(ctx, safeland.SelectRequest{Image: img, MPP: 0.5})
//
// Every entry point takes a context.Context; SelectBatch verifies N frames
// in parallel across the worker pool, one Select per frame, and NewSession
// opens a per-vehicle descent stream. The selection backend is
// pluggable through the Selector interface: PipelineSelector is the
// paper's monitored Figure 2 pipeline, HybridSelector fuses it with a
// static GIS risk map, and BaselineSelector adapts the related-work survey
// methods, so all of them are interchangeable behind one API. Each worker
// owns a private replica of the trained model (the perception stack caches
// per-layer state and is deliberately not shared), and the monitor's
// per-call reseeding keeps concurrent results identical to sequential
// runs.
//
// System remains as the single-threaded assembly underneath the Engine —
// NewEngine builds or adopts one — holding the trained model, monitor and
// vehicle spec; all selection goes through the Engine (the former
// System.SelectLandingZone/PlanLanding shims are gone). The building
// blocks live in internal/ packages and are exercised by the examples/
// programs, the cmd/ tools and the experiment suite (cmd/elbench).
package safeland

import (
	"fmt"
	"io"

	"safeland/internal/core"
	"safeland/internal/segment"
	"safeland/internal/sora"
	"safeland/internal/uav"
	"safeland/internal/urban"
)

// Options configures NewSystem.
type Options struct {
	// Seed drives every stochastic component; identical options produce an
	// identical system.
	Seed int64
	// TrainScenes is the number of procedural scenes to train on.
	TrainScenes int
	// TrainSteps is the number of SGD steps.
	TrainSteps int
	// SceneSize is the generated scene side in pixels.
	SceneSize int
	// MCSamples is the Bayesian monitor sample count (paper: 10). Zero or
	// less selects DefaultOptions' count; 1 is invalid, as the monitor's
	// standard deviation needs two samples, and NewSystem panics on it
	// before training.
	MCSamples int
	// Progress, when non-nil, receives training progress lines.
	Progress io.Writer
}

// DefaultOptions returns the full-scale settings used by the tools.
func DefaultOptions() Options {
	return Options{
		Seed:        2021,
		TrainScenes: 6,
		TrainSteps:  800,
		SceneSize:   192,
		MCSamples:   10,
	}
}

// System is a ready-to-fly emergency landing stack: the trained perception
// model wrapped in the Figure 2 safety architecture, plus the vehicle it is
// sized for.
type System struct {
	Pipeline *core.Pipeline
	Spec     uav.Spec
}

// NewSystem generates training data, trains the segmentation model, and
// assembles the monitored landing pipeline.
func NewSystem(opts Options) *System {
	if opts.TrainScenes <= 0 || opts.TrainSteps <= 0 || opts.SceneSize <= 0 {
		o := DefaultOptions()
		if opts.TrainScenes <= 0 {
			opts.TrainScenes = o.TrainScenes
		}
		if opts.TrainSteps <= 0 {
			opts.TrainSteps = o.TrainSteps
		}
		if opts.SceneSize <= 0 {
			opts.SceneSize = o.SceneSize
		}
	}
	switch {
	case opts.MCSamples <= 0:
		opts.MCSamples = DefaultOptions().MCSamples
	case opts.MCSamples < 2:
		panic(fmt.Sprintf("safeland: Options.MCSamples = %d: the Bayesian monitor needs at least 2 Monte-Carlo samples", opts.MCSamples))
	}
	ucfg := urban.DefaultConfig()
	ucfg.W, ucfg.H = opts.SceneSize, opts.SceneSize
	scenes := urban.GenerateSet(ucfg, urban.DefaultConditions(), opts.TrainScenes, opts.Seed)

	mcfg := segment.DefaultConfig()
	mcfg.Seed = opts.Seed
	model := segment.New(mcfg)
	tcfg := segment.DefaultTrainConfig()
	tcfg.Steps = opts.TrainSteps
	tcfg.Seed = opts.Seed + 1
	tcfg.Log = opts.Progress
	segment.Train(model, scenes, tcfg)

	pipe := core.NewPipeline(model, opts.Seed+2)
	pipe.Monitor.Samples = opts.MCSamples
	return &System{Pipeline: pipe, Spec: uav.MediDelivery()}
}

// Load reads a previously saved model checkpoint and assembles the system
// around it.
func Load(path string, seed int64) (*System, error) {
	model, err := segment.Load(path, segment.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("safeland: loading system: %w", err)
	}
	return &System{Pipeline: core.NewPipeline(model, seed), Spec: uav.MediDelivery()}, nil
}

// Save writes the trained model checkpoint to path.
func (s *System) Save(path string) error {
	if err := s.Pipeline.Model.Save(path); err != nil {
		return fmt.Errorf("safeland: saving system: %w", err)
	}
	return nil
}

// Replica returns an independent copy of the system sharing no mutable
// state with the original: the replica's network has private per-layer
// caches and dropout RNGs, while its parameters and batch-norm statistics
// alias the original's read-only tensors (the frozen-weights invariant of
// segment.Model.Clone — a replica pool pays for one copy of the weights).
// The monitor seed carries over so Monte-Carlo verdicts stay identical.
// This is how the Engine gives each worker a private perception stack.
func (s *System) Replica() (*System, error) {
	m, err := s.Pipeline.Model.Clone()
	if err != nil {
		return nil, fmt.Errorf("safeland: replicating system: %w", err)
	}
	return &System{Pipeline: s.Pipeline.Replica(m), Spec: s.Spec}, nil
}

// Certify runs the SORA v2.0 assessment for the given vehicle's MEDI
// DELIVERY-style operation with the emergency-landing function claimed as
// an active-M1 mitigation under the given validation claims, alongside a
// Medium-robustness emergency response plan. No trained model is needed:
// the claims are the evidence the assessment weighs.
func Certify(spec uav.Spec, claims core.Claims) sora.Assessment {
	op := Operation(spec)
	op.Mitigations = []sora.Mitigation{
		{Type: sora.M3, Integrity: sora.Medium, Assurance: sora.Medium},
		core.MitigationClaim(claims),
	}
	return sora.Assess(op)
}

// Operation builds the paper's MEDI DELIVERY SORA operation for a vehicle.
func Operation(spec uav.Spec) sora.Operation {
	return CustomOperation(spec.Name, spec.SpanM, spec.MTOWKg, spec.CruiseAltM, sora.BVLOSPopulated)
}

// CustomOperation builds a SORA operation for an arbitrary vehicle and
// operational scenario, deriving the ballistic kinetic energy and airspace
// from the physical parameters the same way Operation does for the
// paper's case study.
func CustomOperation(name string, spanM, mtowKg, altM float64, sc sora.OperationalScenario) sora.Operation {
	overCity := false
	switch sc {
	case sora.VLOSPopulated, sora.BVLOSPopulated, sora.VLOSGathering, sora.BVLOSGathering:
		overCity = true
	}
	return sora.Operation{
		Name:           name,
		SpanM:          spanM,
		KineticEnergyJ: uav.BallisticImpactEnergy(mtowKg, altM),
		Scenario:       sc,
		Airspace:       sora.Airspace{MaxHeightFt: altM * 3.28084, Urban: overCity},
	}
}
