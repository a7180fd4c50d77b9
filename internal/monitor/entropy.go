package monitor

import (
	"context"
	"fmt"
	"math"

	"safeland/internal/imaging"
	"safeland/internal/nn"
	"safeland/internal/urban"
)

// The paper's conclusion lists "other uncertainty estimation techniques"
// as future work. This file adds the two standard alternatives to the
// σ-interval rule so they can be compared head-to-head (experiment E10):
//
//   - predictive entropy H[E[p]]: total uncertainty of the averaged
//     prediction;
//   - BALD mutual information H[E[p]] − E[H[p]]: the epistemic part only,
//     which is the theoretically right quantity for detecting
//     out-of-distribution inputs (model disagreement across dropout
//     masks), as opposed to aleatoric class ambiguity.

// EntropyStats extends the Monte-Carlo statistics with the entropy
// decomposition.
type EntropyStats struct {
	Stats
	// Predictive is H of the mean predictive distribution, per pixel
	// (nats).
	Predictive *imaging.Map
	// Expected is the mean over samples of each sample's entropy (nats).
	Expected *imaging.Map
	// MutualInformation is Predictive − Expected (clamped at 0): the BALD
	// score.
	MutualInformation *imaging.Map
}

// MCEntropyStats runs the same stochastic forward passes as MCStats —
// the deterministic prefix once, the suffix once over the sample batch
// (see mcRun) — and additionally decomposes predictive uncertainty into
// aleatoric and epistemic parts. Like the moments, the entropies are
// computed per pixel at the head's resolution and upsampled with them. The
// buffers are freshly allocated: they escape to the caller.
func (b *Bayesian) MCEntropyStats(img *imaging.Image) EntropyStats {
	probs, upsampled, err := b.mcRun(context.Background(), img)
	if err != nil {
		// Background never cancels; mcRun has no other error path.
		panic(fmt.Sprintf("monitor: %v", err))
	}
	// Sized from the statistics, not the input: the stem rounds an odd
	// crop up (25 px gives 13×13, upsampled to 26×26).
	_, c, h, w, _ := probs.Dims5()
	st := Stats{Mean: nn.NewTensor(1, c, h, w), Std: nn.NewTensor(1, c, h, w)}
	sampleMoments(st, probs)
	expEnt := imaging.NewMap(w, h)
	expectedEntropy(expEnt, probs)
	b.Model.Scratch().Put(probs)
	pred := entropyOf(st.Mean)
	mi := imaging.NewMap(pred.W, pred.H)
	for i := range mi.Pix {
		d := pred.Pix[i] - expEnt.Pix[i]
		if d < 0 {
			d = 0
		}
		mi.Pix[i] = d
	}
	if upsampled {
		st = Stats{Mean: upsample(st.Mean), Std: upsample(st.Std)}
		pred, expEnt, mi = upsampleMap(pred), upsampleMap(expEnt), upsampleMap(mi)
	}
	return EntropyStats{
		Stats:             st,
		Predictive:        pred,
		Expected:          expEnt,
		MutualInformation: mi,
	}
}

// upsampleMap returns a 2W×2H copy of m with each value over a 2×2 block.
func upsampleMap(m *imaging.Map) *imaging.Map {
	out := imaging.NewMap(2*m.W, 2*m.H)
	imaging.Expand2x(out.Pix, m.Pix, m.W, m.H)
	return out
}

// expectedEntropy sets each pixel of acc to the mean over the samples of
// probs [1,C,H,W,S] of that sample's entropy: the float32 sum of the
// samples' entropies in sample order from +0, divided by S.
func expectedEntropy(acc *imaging.Map, probs *nn.Tensor) {
	_, c, h, w, s := probs.Dims5()
	hw := h * w
	for i := range acc.Pix[:hw] {
		var sum float32
		for j := 0; j < s; j++ {
			var e float64
			for ci := 0; ci < c; ci++ {
				p := float64(probs.Data[(ci*hw+i)*s+j])
				if p > 1e-12 {
					// Rounded apart from the subtraction, which arm64
					// would otherwise fuse with it.
					e -= float64(p * math.Log(p))
				}
			}
			sum += float32(e)
		}
		acc.Pix[i] = sum / float32(s)
	}
}

// entropyOf computes per-pixel entropy of a [1,C,H,W] distribution tensor.
func entropyOf(probs *nn.Tensor) *imaging.Map {
	_, c, h, w := probs.Dims4()
	out := imaging.NewMap(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var e float64
			for ci := 0; ci < c; ci++ {
				p := float64(probs.At4(0, ci, y, x))
				if p > 1e-12 {
					// Rounded apart from the subtraction, which arm64
					// would otherwise fuse with it.
					e -= float64(p * math.Log(p))
				}
			}
			out.Pix[y*w+x] = float32(e)
		}
	}
	return out
}

// UncertaintyKind selects the flagging signal of an alternative monitor.
type UncertaintyKind int

// Alternative monitor signals.
const (
	// SigmaInterval is the paper's µ+kσ ≤ τ rule on busy-road scores.
	SigmaInterval UncertaintyKind = iota
	// PredictiveEntropy flags pixels whose averaged prediction is uncertain.
	PredictiveEntropy
	// MutualInformation flags pixels where dropout masks disagree (BALD).
	MutualInformation
)

// String names the signal.
func (k UncertaintyKind) String() string {
	switch k {
	case SigmaInterval:
		return "sigma-interval"
	case PredictiveEntropy:
		return "predictive-entropy"
	case MutualInformation:
		return "mutual-information"
	default:
		return "uncertainty(?)"
	}
}

// FlagsBy applies an alternative uncertainty signal at the given threshold,
// returning a binary flag map. For SigmaInterval the threshold is τ of the
// default 3σ rule; for the entropy signals it is the nats cutoff.
func (es EntropyStats) FlagsBy(kind UncertaintyKind, threshold float32) *imaging.Map {
	switch kind {
	case PredictiveEntropy:
		return es.Predictive.Threshold(threshold)
	case MutualInformation:
		return es.MutualInformation.Threshold(threshold)
	default:
		return Rule{Tau: threshold, Sigmas: 3}.PixelFlags(es.Stats)
	}
}

// SignalPoint is one operating point of an alternative-signal sweep.
type SignalPoint struct {
	Kind      UncertaintyKind
	Threshold float32
	Quality   Quality
}

// SceneEval is what every quality table of E10 reads of one scene: its
// ground truth, the core model's prediction and its Monte-Carlo entropy
// statistics, which carry the σ-interval rule's moments too.
type SceneEval struct {
	Truth, Pred *imaging.LabelMap
	Stats       EntropyStats
}

// EvalScenes computes each scene's prediction and entropy statistics once,
// for any number of signals, thresholds and rules to be read from them.
func EvalScenes(b *Bayesian, scenes []*urban.Scene) []SceneEval {
	evals := make([]SceneEval, len(scenes))
	for i, s := range scenes {
		evals[i] = SceneEval{Truth: s.Labels, Pred: b.Model.Predict(s.Image), Stats: b.MCEntropyStats(s.Image)}
	}
	return evals
}

// QualityOf tallies the monitor quality over the evaluated scenes of the
// flag map flags derives from each scene's statistics.
func QualityOf(evals []SceneEval, flags func(EntropyStats) *imaging.Map) Quality {
	var t Tally
	for _, ev := range evals {
		t.Add(ev.Truth, ev.Pred, flags(ev.Stats))
	}
	return t.Quality()
}

// SweepSignal evaluates one uncertainty signal across thresholds on the
// evaluated scenes. With SigmaInterval it is the τ sweep of the 3σ rule;
// E10 compares the signals at matched false-warning rates.
func SweepSignal(evals []SceneEval, kind UncertaintyKind, thresholds []float32) []SignalPoint {
	out := make([]SignalPoint, 0, len(thresholds))
	for _, thr := range thresholds {
		q := QualityOf(evals, func(es EntropyStats) *imaging.Map { return es.FlagsBy(kind, thr) })
		out = append(out, SignalPoint{Kind: kind, Threshold: thr, Quality: q})
	}
	return out
}
