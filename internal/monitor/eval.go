package monitor

import (
	"fmt"

	"safeland/internal/imaging"
	"safeland/internal/urban"
)

// Quality quantifies monitor behavior against ground truth — the "formal
// quantitative study" the paper's conclusion calls for.
type Quality struct {
	// HazardMissCoverage is the fraction of busy-road pixels missed by the
	// deterministic core model that the monitor flags: the paper's headline
	// qualitative claim ("the monitor seems able to trigger uncertainty
	// warnings for a large part of the road areas not covered by the core
	// model"), made measurable.
	HazardMissCoverage float64
	// FalseWarningRate is the fraction of truly-safe pixels flagged; each
	// false warning costs a retry or an aborted flight.
	FalseWarningRate float64
	// FlaggedFraction is the overall fraction of flagged pixels.
	FlaggedFraction float64
	// CoreBusyRecall is the deterministic model's busy-road recall, for
	// reference.
	CoreBusyRecall float64
	// Pixels is the number of pixels evaluated.
	Pixels int64
}

// String renders the quality headline.
func (q Quality) String() string {
	return fmt.Sprintf("miss-coverage %.3f, false-warning %.3f, flagged %.3f (core busy-recall %.3f)",
		q.HazardMissCoverage, q.FalseWarningRate, q.FlaggedFraction, q.CoreBusyRecall)
}

// Evaluate measures monitor quality over full scenes: for every pixel it
// compares ground truth, the deterministic core prediction, and the monitor
// flag.
func Evaluate(b *Bayesian, scenes []*urban.Scene, rule Rule) Quality {
	var t tally
	for _, s := range scenes {
		t.add(s.Labels, b.Model.Predict(s.Image), rule.PixelFlags(b.MCStats(s.Image)))
	}
	return t.quality()
}

// tally accumulates the per-pixel counts behind a Quality over scenes.
type tally struct {
	safe, safeFlagged  int64 // pixels that are not busy road, and those flagged
	busyCaught, missed int64 // busy-road pixels the core model caught, and missed
	missedFlagged      int64
	flagged            int64
}

// add tallies one scene: its ground truth, the core model's prediction and
// the monitor's flag map, all at the scene's resolution.
func (t *tally) add(truth, pred *imaging.LabelMap, flags *imaging.Map) {
	for i, c := range truth.Pix {
		isFlagged := flags.Pix[i] >= 0.5
		if isFlagged {
			t.flagged++
		}
		switch {
		case !c.BusyRoad():
			t.safe++
			if isFlagged {
				t.safeFlagged++
			}
		case pred.Pix[i].BusyRoad():
			t.busyCaught++
		default:
			t.missed++
			if isFlagged {
				t.missedFlagged++
			}
		}
	}
}

// quality turns the counts into rates.
func (t tally) quality() Quality {
	busy := t.busyCaught + t.missed
	q := Quality{Pixels: t.safe + busy, HazardMissCoverage: 1} // nothing missed: vacuously covered
	if t.missed > 0 {
		q.HazardMissCoverage = float64(t.missedFlagged) / float64(t.missed)
	}
	if t.safe > 0 {
		q.FalseWarningRate = float64(t.safeFlagged) / float64(t.safe)
	}
	if q.Pixels > 0 {
		q.FlaggedFraction = float64(t.flagged) / float64(q.Pixels)
	}
	if busy > 0 {
		q.CoreBusyRecall = float64(t.busyCaught) / float64(busy)
	}
	return q
}

// ROCPoint is one operating point of the τ sweep.
type ROCPoint struct {
	Tau     float32
	Quality Quality
}

// SweepTau evaluates monitor quality across decision thresholds, reusing the
// expensive MC statistics across thresholds.
func SweepTau(b *Bayesian, scenes []*urban.Scene, taus []float32, sigmas float32) []ROCPoint {
	type sceneEval struct {
		scene *urban.Scene
		pred  *imaging.LabelMap
		st    Stats
	}
	evals := make([]sceneEval, len(scenes))
	for i, s := range scenes {
		evals[i] = sceneEval{scene: s, pred: b.Model.Predict(s.Image), st: b.MCStats(s.Image)}
	}
	out := make([]ROCPoint, 0, len(taus))
	for _, tau := range taus {
		rule := Rule{Tau: tau, Sigmas: sigmas}
		var t tally
		for _, ev := range evals {
			t.add(ev.scene.Labels, ev.pred, rule.PixelFlags(ev.st))
		}
		out = append(out, ROCPoint{Tau: tau, Quality: t.quality()})
	}
	return out
}
