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
	var t Tally
	for _, s := range scenes {
		t.Add(s.Labels, b.Model.Predict(s.Image), rule.PixelFlags(b.MCStats(s.Image)))
	}
	return t.Quality()
}

// Tally accumulates the per-pixel counts behind a Quality over scenes.
type Tally struct {
	Safe, SafeFlagged  int64 // pixels that are not busy road, and those flagged
	BusyCaught, Missed int64 // busy-road pixels the core model caught, and missed
	MissedFlagged      int64
	Flagged            int64
}

// Add tallies one scene: its ground truth, the core model's prediction and
// the monitor's flag map, all at the scene's resolution.
func (t *Tally) Add(truth, pred *imaging.LabelMap, flags *imaging.Map) {
	for i, c := range truth.Pix {
		isFlagged := flags.Pix[i] >= 0.5
		if isFlagged {
			t.Flagged++
		}
		switch {
		case !c.BusyRoad():
			t.Safe++
			if isFlagged {
				t.SafeFlagged++
			}
		case pred.Pix[i].BusyRoad():
			t.BusyCaught++
		default:
			t.Missed++
			if isFlagged {
				t.MissedFlagged++
			}
		}
	}
}

// Quality turns the counts into rates.
func (t Tally) Quality() Quality {
	busy := t.BusyCaught + t.Missed
	q := Quality{Pixels: t.Safe + busy, HazardMissCoverage: 1} // nothing missed: vacuously covered
	if t.Missed > 0 {
		q.HazardMissCoverage = float64(t.MissedFlagged) / float64(t.Missed)
	}
	if t.Safe > 0 {
		q.FalseWarningRate = float64(t.SafeFlagged) / float64(t.Safe)
	}
	if q.Pixels > 0 {
		q.FlaggedFraction = float64(t.Flagged) / float64(q.Pixels)
	}
	if busy > 0 {
		q.CoreBusyRecall = float64(t.BusyCaught) / float64(busy)
	}
	return q
}
