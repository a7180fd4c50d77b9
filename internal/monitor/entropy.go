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
// including the deterministic-prefix reuse and arena-backed sample loop —
// and additionally decomposes predictive uncertainty into aleatoric and
// epistemic parts. Like the moments, the entropies are computed per pixel
// at the head's resolution and upsampled with them (see mcRun). The
// buffers are freshly allocated: they escape to the caller.
func (b *Bayesian) MCEntropyStats(img *imaging.Image) EntropyStats {
	var sum, sumSq *nn.Tensor
	var expEnt *imaging.Map
	upsampled, err := b.mcRun(context.Background(), img, func(probs *nn.Tensor) {
		if sum == nil {
			sum = probs.ZerosLike()
			sumSq = probs.ZerosLike()
			// Sized from the statistics, not the input: the stem rounds an
			// odd crop up (25 px gives 13×13, upsampled to 26×26).
			_, _, h, w := probs.Dims4()
			expEnt = imaging.NewMap(w, h)
		}
		accumulateMoments(sum, sumSq, probs)
		accumulateEntropy(expEnt, probs)
	})
	if err != nil {
		// Background never cancels; mcRun has no other error path.
		panic(fmt.Sprintf("monitor: %v", err))
	}
	n := float32(b.Samples)
	st := finalizeMoments(sum, sumSq, n)
	for i := range expEnt.Pix {
		expEnt.Pix[i] /= n
	}
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

// accumulateEntropy adds each pixel's sample entropy into acc.
func accumulateEntropy(acc *imaging.Map, probs *nn.Tensor) {
	_, c, h, w := probs.Dims4()
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
			acc.Pix[y*w+x] += float32(e)
		}
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

// SweepSignal evaluates one uncertainty signal across thresholds on the
// scenes, reusing the Monte-Carlo statistics. With SigmaInterval it is the
// τ sweep of the 3σ rule; E10 compares the signals at matched
// false-warning rates.
func SweepSignal(b *Bayesian, scenes []*urban.Scene, kind UncertaintyKind, thresholds []float32) []SignalPoint {
	type sceneEval struct {
		scene *urban.Scene
		pred  *imaging.LabelMap
		es    EntropyStats
	}
	evals := make([]sceneEval, len(scenes))
	for i, s := range scenes {
		evals[i] = sceneEval{scene: s, pred: b.Model.Predict(s.Image), es: b.MCEntropyStats(s.Image)}
	}
	out := make([]SignalPoint, 0, len(thresholds))
	for _, thr := range thresholds {
		var t Tally
		for _, ev := range evals {
			t.Add(ev.scene.Labels, ev.pred, ev.es.FlagsBy(kind, thr))
		}
		out = append(out, SignalPoint{Kind: kind, Threshold: thr, Quality: t.Quality()})
	}
	return out
}
