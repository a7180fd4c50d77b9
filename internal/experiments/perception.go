package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"safeland"
	"safeland/internal/imaging"
	"safeland/internal/monitor"
	"safeland/internal/scenario"
	"safeland/internal/segment"
	"safeland/internal/urban"
)

// RunE7 is the quantified Figure 4: segmentation quality in-distribution
// vs out-of-distribution, monitor coverage of the core model's misses, and
// three sub-image case studies mirroring the paper's crops.
func RunE7(e *Env, w io.Writer) error {
	ds := e.Dataset()
	m := e.Model()
	b := e.Bayesian()
	rule := monitor.DefaultRule()

	inConf := segment.Evaluate(m, ds.Test)
	oodConf := segment.Evaluate(m, ds.OOD)
	fmt.Fprintln(w, "Core model (deterministic MSDnet):")
	fmt.Fprintf(w, "  %-18s %10s %10s %14s %14s\n", "split", "pixel acc", "mean IoU", "busy recall", "busy precision")
	fmt.Fprintf(w, "  %-18s %10.3f %10.3f %14.3f %14.3f\n", "in-distribution",
		inConf.PixelAccuracy(), inConf.MeanIoU(), inConf.BusyRoadRecall(), inConf.BusyRoadPrecision())
	fmt.Fprintf(w, "  %-18s %10.3f %10.3f %14.3f %14.3f\n", "OOD (sunset)",
		oodConf.PixelAccuracy(), oodConf.MeanIoU(), oodConf.BusyRoadRecall(), oodConf.BusyRoadPrecision())

	qIn := monitor.Evaluate(b, ds.Test, rule)
	qOOD := monitor.Evaluate(b, ds.OOD, rule)
	fmt.Fprintln(w, "\nBayesian monitor (10-sample MC dropout, µ+3σ ≤ 0.125 per busy-road class):")
	fmt.Fprintf(w, "  %-18s %16s %16s %12s\n", "split", "miss coverage", "false warnings", "flagged")
	fmt.Fprintf(w, "  %-18s %16.3f %16.3f %12.3f\n", "in-distribution",
		qIn.HazardMissCoverage, qIn.FalseWarningRate, qIn.FlaggedFraction)
	fmt.Fprintf(w, "  %-18s %16.3f %16.3f %12.3f\n", "OOD (sunset)",
		qOOD.HazardMissCoverage, qOOD.FalseWarningRate, qOOD.FlaggedFraction)

	fmt.Fprintln(w, "\nPaper's qualitative claims, quantified:")
	fmt.Fprintf(w, "  - model \"performs reasonably well\" in-dist: busy-road recall %.3f\n", qIn.CoreBusyRecall)
	fmt.Fprintf(w, "  - model \"clearly fails\" on OOD: busy-road recall %.3f\n", qOOD.CoreBusyRecall)
	fmt.Fprintf(w, "  - monitor \"flags a large part of missed roads\": OOD miss coverage %.3f\n", qOOD.HazardMissCoverage)

	// Sub-image case studies (the paper's Figure 4 crops): a road crop, a
	// safe crop, and an OOD road crop missed by the model. Confirmation
	// uses the pipeline's zone tolerance (a flagged boundary rim is
	// acceptable), matching how the Decision Module consumes verdicts.
	zoneRule := rule
	zoneRule.MaxFlaggedFraction = 0.25 // the pipeline's zone tolerance
	fmt.Fprintln(w, "\nSub-image case studies (analogue of the paper's Figure 4 crops):")
	caseStudy(w, b, zoneRule, ds.Test[0], "4a-road  (in-dist, contains road)", true)
	caseStudy(w, b, zoneRule, ds.Test[0], "4a-safe  (in-dist, road-free)", false)
	caseStudy(w, b, zoneRule, ds.OOD[0], "4b-road  (OOD sunset, contains road)", true)
	caseStudy(w, b, zoneRule, ds.OOD[0], "4b-safe  (OOD sunset, road-free)", false)

	// End-to-end zone availability: the full Figure 2 pipeline served over
	// the Engine worker pool, one Engine.Select per held-out scene of each
	// split, from the shared corpus (pure cache hits — the dataset already
	// resolved them). This is the operational consequence of the
	// monitor's conservatism — a distribution shift that inflates
	// uncertainty costs confirmed zones.
	eng, err := e.Engine()
	if err != nil {
		return fmt.Errorf("E7: %w", err)
	}
	defer eng.Close()
	_, testSpecs, oodSpecs := e.datasetSpecs()
	fmt.Fprintln(w, "\nZone availability, full pipeline served through Engine.Select:")
	for _, split := range []struct {
		name  string
		specs []scenario.Spec
	}{{"in-distribution", testSpecs}, {"OOD (sunset)", oodSpecs}} {
		confirmed, trials := 0, 0
		for si, resp := range e.Fleet(context.Background(), eng, split.specs, scenario.SceneRequest) {
			if resp.Err != nil {
				return fmt.Errorf("E7 %s scene %d: %w", split.name, si, resp.Err)
			}
			if resp.Result.Confirmed {
				confirmed++
			}
			trials += len(resp.Result.Trials)
		}
		fmt.Fprintf(w, "  %-18s confirmed %d/%d scenes, %.1f monitor trials/scene\n",
			split.name, confirmed, len(split.specs), float64(trials)/float64(len(split.specs)))
	}
	return nil
}

// caseStudy crops a window of the requested kind from the scene, verifies
// it, and prints the verdict (plus the paper's expectation).
func caseStudy(w io.Writer, b *monitor.Bayesian, rule monitor.Rule, s *urban.Scene, label string, wantRoad bool) {
	const win = 48
	ci := imaging.NewClassIntegral(s.Labels)
	bestX, bestY, bestFr := -1, -1, -1.0
	for y := 0; y+win <= s.Labels.H; y += 8 {
		for x := 0; x+win <= s.Labels.W; x += 8 {
			fr := ci.BusyRoadFraction(x, y, x+win, y+win)
			if wantRoad {
				if fr > bestFr {
					bestX, bestY, bestFr = x, y, fr
				}
			} else {
				if bestFr < 0 || fr < bestFr {
					bestX, bestY, bestFr = x, y, fr
				}
			}
		}
	}
	if bestX < 0 || (wantRoad && bestFr < 0.05) || (!wantRoad && bestFr > 0) {
		fmt.Fprintf(w, "  %-52s (no suitable crop in scene)\n", label)
		return
	}
	sub := s.Image.Crop(bestX, bestY, win, win)
	v := b.VerifyRegion(sub, rule)
	fmt.Fprintf(w, "  %-52s truth-road %4.2f  flagged %5.3f  max(µ+3σ) %5.2f  confirmed=%v\n",
		label, bestFr, v.FlaggedFraction, v.MaxScore, v.Confirmed)
}

// RunE9 reproduces the Section V-B timing argument: Bayesian verification
// of a pre-selected sub-image is tractable; a full frame is not. The paper
// reports <5 s for 1024² vs >60 s for 3840×2160 on a Quadro P5000; the
// hardware-independent shape is the ratio ≈ pixel ratio ≈ 7.9×.
func RunE9(e *Env, w io.Writer) error {
	// The timed monitor is a replica's: the fused network every Engine
	// worker serves, warmed by one untimed verdict of each size.
	b, err := e.BayesianReplica()
	if err != nil {
		return fmt.Errorf("E9: %w", err)
	}
	// Paper-proportional resolutions scaled to CPU: the full frame keeps
	// the 16:9 aspect, the sub-image keeps the 1024/3840 linear fraction.
	fullW, fullH := 384, 216
	subSide := 102 // 384 * 1024/3840 = 102.4
	if e.Cfg.SceneSize < 192 {
		fullW, fullH = 192, 108
		subSide = 52
	}
	cfg := e.SceneConfig()
	cfg.W, cfg.H = fullW, fullH
	scene := urban.Generate(cfg, urban.DefaultConditions(), e.Cfg.Seed+90)
	sub := scene.Image.Crop(0, 0, evenInt(subSide), evenInt(subSide))

	rule := monitor.DefaultRule()
	b.VerifyRegion(sub, rule)
	b.VerifyRegion(scene.Image, rule)
	t0 := time.Now()
	b.VerifyRegion(sub, rule)
	subTime := time.Since(t0)

	t0 = time.Now()
	b.VerifyRegion(scene.Image, rule)
	fullTime := time.Since(t0)

	pixelRatio := float64(fullW*fullH) / float64(evenInt(subSide)*evenInt(subSide))
	fmt.Fprintf(w, "Monte-Carlo samples: %d\n", b.Samples)
	fmt.Fprintf(w, "  sub-image  %4dx%-4d : %10v\n", evenInt(subSide), evenInt(subSide), subTime)
	fmt.Fprintf(w, "  full frame %4dx%-4d : %10v\n", fullW, fullH, fullTime)
	fmt.Fprintf(w, "  measured ratio %.1fx, pixel ratio %.1fx (paper: >12x at 7.9x pixels)\n",
		float64(fullTime)/float64(subTime), pixelRatio)

	fmt.Fprintln(w, "\nScaling in MC samples (sub-image):")
	for _, n := range []int{2, 5, 10} {
		b.Samples = n
		b.VerifyRegion(sub, rule)
		t0 = time.Now()
		b.VerifyRegion(sub, rule)
		fmt.Fprintf(w, "  %2d samples: %10v\n", n, time.Since(t0))
	}

	// The timing fleet: the full monitored selection over a set of
	// emergency scenes, one Engine.Select per scene, served once on a
	// single worker and once on the configured pool. The scenes are
	// resolved through the shared corpus before either timed pass, so both
	// passes read them from cache. Every inference op runs on its worker's
	// goroutine, so the single-worker pass uses one core and the speedup is
	// pool scaling alone: near-linear on a multi-core runner until the
	// workers contend for the machine. The responses are byte-identical
	// (per-call monitor reseeding), so the speedup is free of result drift.
	fleetSpecs := scenario.Set(e.SceneConfig(), urban.DefaultConditions(), e.Cfg.CompareScenes, e.Cfg.Seed+91)
	e.Corpus.Scenes(fleetSpecs)
	fleetReq := func(_ int, s *urban.Scene) safeland.SelectRequest {
		return safeland.SelectRequest{Scene: s}
	}
	fmt.Fprintf(w, "\nSelection fleet: %d scenes (%dpx), one Engine.Select per scene:\n",
		len(fleetSpecs), e.Cfg.SceneSize)
	pools := []int{1}
	if e.Workers() > 1 {
		pools = append(pools, e.Workers())
	}
	// A pass over a quick fleet takes milliseconds, so each pool size
	// reports the median of e9FleetPasses passes on one engine.
	wall := make([]time.Duration, len(pools))
	for i, workers := range pools {
		eng, err := e.EngineWith(safeland.PipelineSelector(), workers)
		if err != nil {
			return fmt.Errorf("E9: %w", err)
		}
		passes := make([]time.Duration, e9FleetPasses)
		for p := range passes {
			t0 = time.Now()
			for si, resp := range e.Fleet(context.Background(), eng, fleetSpecs, fleetReq) {
				if resp.Err != nil {
					eng.Close()
					return fmt.Errorf("E9 scene %d: %w", si, resp.Err)
				}
			}
			passes[p] = time.Since(t0)
		}
		eng.Close()
		slices.Sort(passes)
		wall[i] = passes[len(passes)/2]
		fmt.Fprintf(w, "  %d worker(s): %10v (median of %d passes)\n", workers, wall[i], e9FleetPasses)
	}
	if len(wall) > 1 && wall[1] > 0 {
		fmt.Fprintf(w, "  batch speedup %.2fx at %d workers (GOMAXPROCS %d)\n",
			float64(wall[0])/float64(wall[1]), e.Workers(), runtime.GOMAXPROCS(0))
	}

	fmt.Fprintln(w, "\nConclusion: verifying only pre-selected sub-images (Figure 2 architecture) is")
	fmt.Fprintln(w, "what makes runtime Bayesian monitoring feasible on embedded hardware.")
	return nil
}

// e9FleetPasses is how many passes over its selection fleet E9 times per
// pool size.
const e9FleetPasses = 7

func evenInt(v int) int {
	if v%2 == 1 {
		return v + 1
	}
	return v
}

// RunE10 is the quantitative monitor study the paper's conclusion calls
// for: τ sweep, confidence-interval width ablation, MC sample count, and
// dropout-rate ablation.
func RunE10(e *Env, w io.Writer) error {
	ds := e.Dataset()
	b := e.Bayesian()

	evalScenes := ds.OOD
	if len(evalScenes) > 2 {
		evalScenes = evalScenes[:2]
	}
	// One prediction and one set of Monte-Carlo statistics per scene serve
	// the τ sweep, the interval-width rows and the signal comparison.
	evals := monitor.EvalScenes(b, evalScenes)

	fmt.Fprintln(w, "τ sweep (3σ rule, OOD scenes) — detection of model-missed road vs false warnings:")
	taus := []float32{0.05, 0.08, 0.125, 0.2, 0.3, 0.5}
	fmt.Fprintf(w, "  %8s %16s %16s %12s\n", "tau", "miss coverage", "false warnings", "flagged")
	for _, pt := range monitor.SweepSignal(evals, monitor.SigmaInterval, taus) {
		marker := ""
		if pt.Threshold == 0.125 {
			marker = "  <- paper's τ=1/8"
		}
		fmt.Fprintf(w, "  %8.3f %16.3f %16.3f %12.3f%s\n",
			pt.Threshold, pt.Quality.HazardMissCoverage, pt.Quality.FalseWarningRate, pt.Quality.FlaggedFraction, marker)
	}

	fmt.Fprintln(w, "\nConfidence-interval width (τ=0.125, OOD) — the conservatism ablation:")
	fmt.Fprintf(w, "  %8s %16s %16s\n", "σ mult", "miss coverage", "false warnings")
	for _, k := range []float32{0, 1, 2, 3} {
		rule := monitor.Rule{Tau: 0.125, Sigmas: k}
		q := monitor.QualityOf(evals, func(es monitor.EntropyStats) *imaging.Map { return rule.PixelFlags(es.Stats) })
		marker := ""
		if k == 3 {
			marker = "  <- paper's 99.7% interval"
		}
		fmt.Fprintf(w, "  %8.0f %16.3f %16.3f%s\n", k, q.HazardMissCoverage, q.FalseWarningRate, marker)
	}

	fmt.Fprintln(w, "\nMC sample count (τ=0.125, 3σ, OOD):")
	fmt.Fprintf(w, "  %8s %16s %16s\n", "samples", "miss coverage", "false warnings")
	// Each sample count evaluates on its own frozen-weights monitor replica,
	// so the rows run as a fleet; results are collected by index and printed
	// in order, keeping the table identical to a sequential sweep.
	counts := []int{2, 5, 10, 20}
	countQ := make([]monitor.Quality, len(counts))
	countErr := make([]error, len(counts))
	fleetRun(e.Workers(), len(counts), func(i int) {
		bn, err := e.BayesianReplica()
		if err != nil {
			countErr[i] = err
			return
		}
		bn.Samples = counts[i]
		countQ[i] = monitor.Evaluate(bn, evalScenes, monitor.DefaultRule())
	})
	for i, n := range counts {
		if countErr[i] != nil {
			return fmt.Errorf("E10 samples=%d: %w", n, countErr[i])
		}
		marker := ""
		if n == 10 {
			marker = "  <- paper's setting"
		}
		fmt.Fprintf(w, "  %8d %16.3f %16.3f%s\n", n, countQ[i].HazardMissCoverage, countQ[i].FalseWarningRate, marker)
	}

	fmt.Fprintln(w, "\nUncertainty-signal comparison (paper future work: 'other uncertainty")
	fmt.Fprintln(w, "estimation techniques'; OOD scenes, threshold sweeps per signal):")
	fmt.Fprintf(w, "  %-22s %10s %16s %16s\n", "signal", "threshold", "miss coverage", "false warnings")
	signals := []struct {
		kind monitor.UncertaintyKind
		thrs []float32
	}{
		{monitor.SigmaInterval, []float32{0.08, 0.125, 0.2}},
		{monitor.PredictiveEntropy, []float32{0.3, 0.6, 1.0}},
		{monitor.MutualInformation, []float32{0.05, 0.12, 0.25}},
	}
	for _, sig := range signals {
		for _, pt := range monitor.SweepSignal(evals, sig.kind, sig.thrs) {
			fmt.Fprintf(w, "  %-22s %10.3f %16.3f %16.3f\n",
				pt.Kind, pt.Threshold, pt.Quality.HazardMissCoverage, pt.Quality.FalseWarningRate)
		}
	}

	fmt.Fprintln(w, "\nDropout-rate ablation (retrained models, τ=0.125, 3σ, OOD):")
	fmt.Fprintf(w, "  %8s %16s %16s %14s\n", "rate", "miss coverage", "false warnings", "in-dist acc")
	// Each rate retrains an independent seeded model, so the whole ablation
	// is a fleet of train-and-evaluate jobs; ordered collection keeps the
	// table deterministic.
	rates := []float64{0.1, 0.3, 0.5}
	type ablation struct {
		q   monitor.Quality
		acc float64
	}
	abl := make([]ablation, len(rates))
	fleetRun(e.Workers(), len(rates), func(i int) {
		p := rates[i]
		mcfg := segment.DefaultConfig()
		mcfg.DropoutP = p
		mcfg.Seed = e.Cfg.Seed + int64(p*100)
		m := segment.New(mcfg)
		segment.Train(m, ds.Train, segment.TrainConfig{
			Steps:    e.Cfg.TrainSteps / 2,
			Batch:    2,
			CropSize: e.Cfg.CropSize,
			LR:       e.Cfg.TrainLR,
			Seed:     e.Cfg.Seed + 7,
		})
		bm := monitor.NewBayesian(m, e.Cfg.Seed+8)
		bm.Samples = e.Cfg.MCSamples
		abl[i] = ablation{
			q:   monitor.Evaluate(bm, evalScenes, monitor.DefaultRule()),
			acc: segment.Evaluate(m, ds.Test[:1]).PixelAccuracy(),
		}
	})
	for i, p := range rates {
		marker := ""
		if p == 0.5 {
			marker = "  <- paper's setting"
		}
		fmt.Fprintf(w, "  %8.1f %16.3f %16.3f %14.3f%s\n",
			p, abl[i].q.HazardMissCoverage, abl[i].q.FalseWarningRate, abl[i].acc, marker)
	}
	return nil
}
