// Package monitor implements the paper's runtime safety monitor for the
// landing-zone selection model: a Bayesian (Monte-Carlo dropout) variant of
// the segmentation network whose per-pixel predictive uncertainty feeds a
// conservative busy-road over-approximation rule (µ + 3σ ≤ τ).
//
// The monitor discharges the paper's Medium-3 assurance requirement
// (Table IV): "safety monitoring techniques are in place to ensure proper
// behavior of any function relying on complex computer vision or machine
// learning".
package monitor

import (
	"context"
	"fmt"
	"math"

	"safeland/internal/imaging"
	"safeland/internal/nn"
	"safeland/internal/segment"
)

// Bayesian wraps a trained segmentation model and produces Monte-Carlo
// predictive statistics by keeping dropout active at inference (Gal &
// Ghahramani 2016). The paper's BMSDnet.
type Bayesian struct {
	Model *segment.Model
	// Samples is the number of stochastic forward passes; the paper uses 10.
	Samples int
	// Seed makes the MC sample sequence reproducible.
	Seed int64
}

// NewBayesian wraps a model with the paper's settings (10 samples).
func NewBayesian(m *segment.Model, seed int64) *Bayesian {
	return &Bayesian{Model: m, Samples: 10, Seed: seed}
}

// Stats holds per-pixel Monte-Carlo statistics of the softmax scores, shape
// [1,C,H,W] each.
type Stats struct {
	Mean *nn.Tensor
	Std  *nn.Tensor
}

// MCStats runs Samples stochastic forward passes and returns the empirical
// mean and standard deviation of the per-pixel softmax scores. The dropout
// mode is restored afterwards, so the wrapped model can keep serving
// deterministic predictions.
func (b *Bayesian) MCStats(img *imaging.Image) Stats {
	st, err := b.MCStatsCtx(context.Background(), img)
	if err != nil {
		// Background never cancels; MCStatsCtx has no other error path.
		panic(fmt.Sprintf("monitor: %v", err))
	}
	return st
}

// MCStatsCtx is MCStats with cooperative cancellation: the context is
// honored between Monte-Carlo samples and between the network layers inside
// each sample, so a cancelled trial stops within one layer's work and
// returns ctx's error. The sample sequence is reseeded per call, so a run
// that completes is byte-identical whether or not earlier runs were
// cancelled.
func (b *Bayesian) MCStatsCtx(ctx context.Context, img *imaging.Image) (Stats, error) {
	sc := b.Model.Scratch()
	st, upsampled, err := b.mcMoments(ctx, img, sc)
	if err != nil || !upsampled {
		// Moment buffers that escape to the caller are simply never Put
		// back into the arena.
		return st, err
	}
	out := Stats{Mean: upsample(st.Mean), Std: upsample(st.Std)}
	sc.Put(st.Mean)
	sc.Put(st.Std)
	return out, nil
}

// mcRun drives the Monte-Carlo sample loop: dropout forced AlwaysOn and
// reseeded from b.Seed, then the deterministic prefix — every layer before
// the first Dropout, whose inference output cannot vary across samples — is
// computed once and only the stochastic suffix is replayed per sample
// (nn.SplitAtFirstDropout). Dropout layers decide exactly the keep mask of a
// full replay: the reseed rewinds each layer's decision record, so every
// verdict after a replica's first replays its decisions instead of drawing
// them, and the per-sample probabilities are byte-identical to running the
// whole network each time; the prefix-reuse tests pin this against a naive
// full replay.
//
// The softmax runs on the head's output, before the trailing Upsample2x
// (nn.SplitTrailingUpsample), and each receives the probabilities at that
// resolution; mcRun reports whether the network would have upsampled them.
// Everything the callers compute from them works per pixel column (all
// channels at one position) — the softmax, the moments, the rule, the
// entropies — and Upsample2x copies whole columns, so computing at head
// resolution and upsampling only what escapes gives the bits of the
// full-resolution computation, with a quarter of the work.
//
// A frozen clone runs its fused inference network (segment.Model.Inference),
// which shares Net's dropout layers and their records.
//
// each borrows probs for the duration of the call only: the buffer returns
// to the model's arena for the next sample.
func (b *Bayesian) mcRun(ctx context.Context, img *imaging.Image, each func(probs *nn.Tensor)) (upsampled bool, err error) {
	if b.Samples < 2 {
		panic(fmt.Sprintf("monitor: need at least 2 MC samples, have %d", b.Samples))
	}
	net := b.Model.Inference()
	sc := b.Model.Scratch()
	in := segment.ToTensorScratch(img, sc)
	stem, suffix := in, net
	defer func() { sc.Put(stem) }()
	if prefix, suf, ok := nn.SplitAtFirstDropout(net); ok {
		out, err := nn.ForwardCtx(ctx, prefix, in, false)
		if err != nil {
			return false, err
		}
		stem, suffix = out, suf
		if stem != in {
			sc.Put(in)
		}
	}
	head, up, _ := nn.SplitTrailingUpsample(suffix)

	nn.SetDropoutMode(net, nn.AlwaysOn)
	defer nn.SetDropoutMode(net, nn.Auto)
	nn.ReseedDropout(net, b.Seed)
	for s := 0; s < b.Samples; s++ {
		// Suffix chains never recycle their chain input, so the stem
		// survives every sample.
		out, err := nn.ForwardCtx(ctx, head, stem, false)
		if err != nil {
			return false, err
		}
		probs := nn.SoftmaxChannelsInPlace(out)
		each(probs)
		if probs != stem {
			sc.Put(probs)
		}
	}
	return up != nil, nil
}

// mcMoments accumulates per-pixel Σp and Σp² over the Monte-Carlo samples
// and finalizes them into mean and standard deviation, all at the head's
// resolution; upsampled reports whether the network's output would be
// those statistics upsampled 2× (see mcRun). The moment buffers are drawn
// from sc: callers Put Mean and Std back once read, which is what makes a
// steady-state VerifyRegionCtx allocation-free.
func (b *Bayesian) mcMoments(ctx context.Context, img *imaging.Image, sc *nn.Scratch) (st Stats, upsampled bool, err error) {
	var sum, sumSq *nn.Tensor
	upsampled, err = b.mcRun(ctx, img, func(probs *nn.Tensor) {
		if sum == nil {
			sum = sc.Get(probs.Shape...)
			sum.Zero()
			sumSq = sc.Get(probs.Shape...)
			sumSq.Zero()
		}
		accumulateMoments(sum, sumSq, probs)
	})
	if err != nil {
		sc.Put(sum)
		sc.Put(sumSq)
		return Stats{}, false, err
	}
	return finalizeMoments(sum, sumSq, float32(b.Samples)), upsampled, nil
}

// accumulateMoments adds each probability to sum and its square to sumSq.
// The conversion rounds the square before the add, so no GOARCH fuses the
// two into one multiply-add (arm64 would).
func accumulateMoments(sum, sumSq, probs *nn.Tensor) {
	s, sq := sum.Data[:len(probs.Data)], sumSq.Data[:len(probs.Data)]
	for i, v := range probs.Data {
		s[i] += v
		sq[i] += float32(v * v)
	}
}

// upsample returns a freshly allocated 2× upsampled copy of t: what the
// network's trailing Upsample2x computes, outside the model's arena.
func upsample(t *nn.Tensor) *nn.Tensor { return new(nn.Upsample2x).Forward(t, false) }

// finalizeMoments turns accumulated Σp and Σp² into the empirical mean and
// standard deviation in place: sum becomes Mean, sumSq becomes Std (the
// variance estimate is clamped at 0 before the square root — float32
// cancellation can push it fractionally negative). Both moment consumers
// (MCStats and the entropy decomposition) share this so the parity-pinned
// math cannot drift between them.
func finalizeMoments(sum, sumSq *nn.Tensor, samples float32) Stats {
	for i := range sum.Data {
		m := sum.Data[i] / samples
		sum.Data[i] = m
		v := sumSq.Data[i]/samples - float32(m*m)
		if v < 0 {
			v = 0
		}
		sumSq.Data[i] = float32(math.Sqrt(float64(v)))
	}
	return Stats{Mean: sum, Std: sumSq}
}

// Rule is the conservative pixel-safety decision rule of the paper
// (Equation 2): a pixel is safe when µ + Sigmas·σ ≤ Tau for every class of
// the busy-road composite.
type Rule struct {
	// Tau is the decision threshold; the paper picks 0.125 = 1/8 so the road
	// score stays below a uniform random guess over the 8 UAVid classes.
	Tau float32
	// Sigmas is the width of the one-sided confidence interval; the paper
	// uses 3 (the 99.7% interval).
	Sigmas float32
	// MaxFlaggedFraction is the largest fraction of flagged pixels a region
	// may contain and still be confirmed.
	MaxFlaggedFraction float64
}

// DefaultRule returns the paper's parameters: τ = 0.125, 3σ, and zero
// tolerance for flagged pixels in a confirmed zone.
func DefaultRule() Rule {
	return Rule{Tau: 0.125, Sigmas: 3, MaxFlaggedFraction: 0}
}

// PixelFlags applies the rule to MC statistics and returns a binary map:
// 1 where the pixel is flagged (possibly busy road), 0 where it is safe.
// It runs the verdict's scan (ruleScan).
func (r Rule) PixelFlags(st Stats) *imaging.Map {
	_, _, h, w := st.Mean.Dims4()
	out := imaging.NewMap(w, h)
	ruleScan(st, r, out.Pix)
	return out
}

// ruleScan is the rule's one pass over the statistics' backing arrays, in
// class-major pixel order: the same µ + kσ expression flags a pixel in pix
// (which it finds zeroed) when above τ for any busy-road class, and feeds
// the running maximum, which starts from +0. It returns the number of
// pixels it flagged and that maximum.
func ruleScan(st Stats, rule Rule, pix []float32) (flagged int, maxScore float32) {
	_, c, h, w := st.Mean.Dims4()
	mean, std := st.Mean.Data, st.Std.Data
	for _, cls := range imaging.BusyRoadClasses() {
		ci := int(cls)
		if ci >= c {
			continue
		}
		base := ci * h * w
		for i, mu := range mean[base : base+h*w] {
			// The conversion keeps arm64 from fusing kσ into µ + kσ.
			s := mu + float32(rule.Sigmas*std[base+i])
			if s > maxScore {
				maxScore = s
			}
			if s > rule.Tau && pix[i] == 0 {
				pix[i] = 1
				flagged++
			}
		}
	}
	return flagged, maxScore
}

// Verdict is the monitor's decision about one candidate landing zone.
type Verdict struct {
	// Confirmed is true when the zone passed the conservative check.
	Confirmed bool
	// FlaggedFraction is the fraction of zone pixels violating the rule.
	FlaggedFraction float64
	// MaxScore is the largest µ + Sigmas·σ over pixels and busy-road
	// classes — how close the zone came to rejection.
	MaxScore float32
	// Flags marks the offending pixels.
	Flags *imaging.Map
}

// VerifyRegion runs Bayesian inference on a candidate zone sub-image and
// applies the rule. This is the paper's Figure 2 monitor path: only the
// cropped candidate is verified, because full-frame Bayesian inference is
// prohibitively slow (Section V-B).
func (b *Bayesian) VerifyRegion(sub *imaging.Image, rule Rule) Verdict {
	v, err := b.VerifyRegionCtx(context.Background(), sub, rule)
	if err != nil {
		// Background never cancels; a zero Verdict must not masquerade as
		// a clean monitor pass.
		panic(fmt.Sprintf("monitor: %v", err))
	}
	return v
}

// VerifyRegionCtx is VerifyRegion with cooperative cancellation: a context
// cancelled mid-trial aborts the remaining Monte-Carlo samples and returns
// ctx's error with a zero Verdict.
//
// This is the serving hot path, so the flags and MaxScore come from one
// pass over the statistics' backing arrays (ruleScan, which PixelFlags
// runs too), and the moment buffers come from — and return to — the model
// replica's arena. The Verdict fields are bit-identical to the seed's
// two-scan formulation (PixelFlags plus a separate MaxScore loop).
func (b *Bayesian) VerifyRegionCtx(ctx context.Context, sub *imaging.Image, rule Rule) (Verdict, error) {
	sc := b.Model.Scratch()
	st, upsampled, err := b.mcMoments(ctx, sub, sc)
	if err != nil {
		return Verdict{}, err
	}
	return verdictFromMoments(st, upsampled, sub.W, sub.H, rule, sc), nil
}

// verdictFromMoments applies the rule to finalized moments in one
// ruleScan. inW and inH are the verified region's input dimensions,
// which set the flagged-fraction denominator; the moment buffers return to
// the arena before the verdict escapes.
//
// When upsampled, the moments are at the head's resolution (see mcRun): the
// scan flags head pixels, and the flag map is then upsampled, so each
// flagged head pixel is four flagged output pixels. The maximum is the
// same: the full-resolution scan would see each score four times, and a
// running maximum under > keeps the first of equal values, which differ
// in bits only as ±0, below the +0 it starts from.
func verdictFromMoments(st Stats, upsampled bool, inW, inH int, rule Rule, sc *nn.Scratch) Verdict {
	_, _, h, w := st.Mean.Dims4()
	scale := 1
	if upsampled {
		scale = 2
	}
	flags := imaging.NewMap(scale*w, scale*h)
	pix := flags.Pix[:h*w]
	flagged, maxScore := ruleScan(st, rule, pix)
	if upsampled {
		imaging.Expand2x(flags.Pix, pix, w, h)
		flagged *= 4
	}
	sc.Put(st.Mean)
	sc.Put(st.Std)
	frac := float64(flagged) / float64(inW*inH)
	return Verdict{
		Confirmed:       frac <= rule.MaxFlaggedFraction,
		FlaggedFraction: frac,
		MaxScore:        maxScore,
		Flags:           flags,
	}
}
