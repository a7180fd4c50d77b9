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
// honored between the network layers, and between the branch convs of a
// fused concat, so a cancelled trial stops within one layer's work — one
// layer over all Samples samples at once (see mcRun) — and returns ctx's
// error. The sample sequence is reseeded per call, so a run that completes
// is byte-identical whether or not earlier runs were cancelled.
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

// mcRun runs the Monte-Carlo samples as one batch: dropout forced AlwaysOn
// and reseeded from b.Seed, then the deterministic prefix — every layer
// before the first Dropout, whose inference output cannot vary across
// samples — is computed once (nn.SplitAtFirstDropout) and replicated into
// a sample batch of Samples copies (nn.Replicate, laid out sample-minor:
// see nn.Tensor.Dims5), and the stochastic suffix runs once over the
// batch. Every layer of the suffix computes each sample's bits as a pass
// over that sample alone would, and each Dropout takes unit i of sample s
// from decision s·N + i of its stream, as the s-th of Samples passes would
// (nn.Dropout): the reseed rewinds each layer's decision record, so every
// verdict after a replica's first replays its decisions instead of
// drawing them, and the per-sample probabilities are byte-identical to
// running the whole network once per sample; the naive-replay tests pin
// this.
//
// The softmax runs on the head's output, before the trailing Upsample2x
// (nn.SplitTrailingUpsample), and mcRun returns the batch of probabilities
// [1,C,H,W,S] at that resolution, drawn from the model's arena for the
// caller to Put back, and reports whether the network would have
// upsampled them. Everything the callers compute from them works per
// pixel column (all channels at one position) — the softmax, the moments,
// the rule, the entropies — and Upsample2x copies whole columns, so
// computing at head resolution and upsampling only what escapes gives the
// bits of the full-resolution computation, with a quarter of the work.
//
// A frozen clone runs its fused inference network (segment.Model.Inference),
// which shares Net's dropout layers and their records.
func (b *Bayesian) mcRun(ctx context.Context, img *imaging.Image) (probs *nn.Tensor, upsampled bool, err error) {
	if b.Samples < 2 {
		panic(fmt.Sprintf("monitor: need at least 2 MC samples, have %d", b.Samples))
	}
	net := b.Model.Inference()
	sc := b.Model.Scratch()
	stem, suffix := segment.ToTensorScratch(img, sc), net
	if prefix, suf, ok := nn.SplitAtFirstDropout(net); ok {
		out, err := nn.ForwardCtx(ctx, prefix, stem, false)
		if err != nil {
			sc.Put(stem)
			return nil, false, err
		}
		if out != stem {
			sc.Put(stem)
		}
		stem, suffix = out, suf
	}
	batch := nn.Replicate(stem, b.Samples, sc)
	sc.Put(stem)
	head, up, _ := nn.SplitTrailingUpsample(suffix)

	nn.SetDropoutMode(net, nn.AlwaysOn)
	defer nn.SetDropoutMode(net, nn.Auto)
	nn.ReseedDropout(net, b.Seed)
	// The suffix chain never recycles its input, so the batch is ours to
	// return.
	out, err := nn.ForwardCtx(ctx, head, batch, false)
	if err != nil {
		sc.Put(batch)
		return nil, false, err
	}
	if out != batch {
		sc.Put(batch)
	}
	return nn.SoftmaxChannelsInPlace(out), up != nil, nil
}

// mcMoments computes the per-pixel mean and standard deviation of the
// Monte-Carlo probabilities at the head's resolution; upsampled reports
// whether the network's output would be those statistics upsampled 2×
// (see mcRun). The moment buffers are drawn from sc: callers Put Mean and
// Std back once read, which is what makes a steady-state VerifyRegionCtx
// allocation-free.
func (b *Bayesian) mcMoments(ctx context.Context, img *imaging.Image, sc *nn.Scratch) (st Stats, upsampled bool, err error) {
	probs, upsampled, err := b.mcRun(ctx, img)
	if err != nil {
		return Stats{}, false, err
	}
	shape := probs.Shape[:4]
	st = Stats{Mean: sc.Get(shape...), Std: sc.Get(shape...)}
	sampleMoments(st, probs)
	sc.Put(probs)
	return st, upsampled, nil
}

// sampleMoments reduces the sample axis of probs [1,C,H,W,S] into st's
// [1,C,H,W] mean and standard deviation: per element, Σp and Σp² over the
// samples in order from +0, then mean Σp/S and std √max(Σp²/S − mean², 0)
// — the variance estimate is clamped at 0 because float32 cancellation can
// push it fractionally negative. Both moment consumers (MCStats and the
// entropy decomposition) share it, so the parity-pinned math cannot drift
// between them. The conversions round each square before it is added or
// subtracted, so no GOARCH fuses the two into one multiply-add (arm64
// would).
func sampleMoments(st Stats, probs *nn.Tensor) {
	s := probs.Shape[4]
	n := float32(s)
	mean, std := st.Mean.Data, st.Std.Data[:len(st.Mean.Data)]
	for i := range mean {
		var sum, sumSq float32
		for _, v := range probs.Data[i*s : (i+1)*s] {
			sum += v
			sumSq += float32(v * v)
		}
		m := sum / n
		mean[i] = m
		v := sumSq/n - float32(m*m)
		if v < 0 {
			v = 0
		}
		std[i] = float32(math.Sqrt(float64(v)))
	}
}

// upsample returns a freshly allocated 2× upsampled copy of t: what the
// network's trailing Upsample2x computes, outside the model's arena.
func upsample(t *nn.Tensor) *nn.Tensor { return new(nn.Upsample2x).Forward(t, false) }

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
