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
	// No arena for the moment buffers: Mean and Std escape to the caller,
	// who keeps them for as long as it likes.
	return b.mcMoments(ctx, img, nil)
}

// mcRun drives the Monte-Carlo sample loop: dropout forced AlwaysOn and
// reseeded from b.Seed, then the deterministic prefix — every layer before
// the first Dropout, whose inference output cannot vary across samples — is
// computed once and only the stochastic suffix is replayed per sample
// (nn.SplitAtFirstDropout), with a softmax over each. Dropout layers draw
// exactly the same RNG stream as a full replay, so the per-sample
// probabilities are byte-identical to running the whole network each time;
// the prefix-reuse tests pin this against a naive full replay.
//
// each borrows probs for the duration of the call only: the buffer returns
// to the model's arena for the next sample.
func (b *Bayesian) mcRun(ctx context.Context, img *imaging.Image, each func(probs *nn.Tensor)) error {
	if b.Samples < 2 {
		panic(fmt.Sprintf("monitor: need at least 2 MC samples, have %d", b.Samples))
	}
	sc := b.Model.Scratch()
	in := segment.ToTensorScratch(img, sc)
	stem, suffix := in, nn.Layer(b.Model.Net)
	defer func() { sc.Put(stem) }()
	if prefix, suf, ok := nn.SplitAtFirstDropout(b.Model.Net); ok {
		out, err := nn.ForwardCtx(ctx, prefix, in, false)
		if err != nil {
			return err
		}
		stem, suffix = out, suf
		if stem != in {
			sc.Put(in)
		}
	}

	net := b.Model.Net
	nn.SetDropoutMode(net, nn.AlwaysOn)
	defer nn.SetDropoutMode(net, nn.Auto)
	nn.ReseedDropout(net, b.Seed)
	for s := 0; s < b.Samples; s++ {
		// Suffix chains never recycle their chain input, so the stem
		// survives every sample.
		out, err := nn.ForwardCtx(ctx, suffix, stem, false)
		if err != nil {
			return err
		}
		probs := nn.SoftmaxChannelsInPlace(out)
		each(probs)
		if probs != stem {
			sc.Put(probs)
		}
	}
	return nil
}

// mcMoments accumulates per-pixel Σp and Σp² over the Monte-Carlo samples
// and finalizes them into mean and standard deviation. When sc is non-nil
// the moment buffers are drawn from it — callers doing so must Put Mean and
// Std back once read, which is what makes a steady-state VerifyRegionCtx
// allocation-free; pass nil when the statistics escape.
func (b *Bayesian) mcMoments(ctx context.Context, img *imaging.Image, sc *nn.Scratch) (Stats, error) {
	var sum, sumSq *nn.Tensor
	err := b.mcRun(ctx, img, func(probs *nn.Tensor) {
		if sum == nil {
			sum = sc.Get(probs.Shape...)
			sum.Zero()
			sumSq = sc.Get(probs.Shape...)
			sumSq.Zero()
		}
		for i, v := range probs.Data {
			sum.Data[i] += v
			sumSq.Data[i] += v * v
		}
	})
	if err != nil {
		sc.Put(sum)
		sc.Put(sumSq)
		return Stats{}, err
	}
	return finalizeMoments(sum, sumSq, float32(b.Samples)), nil
}

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
		v := sumSq.Data[i]/samples - m*m
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
// The scan walks the statistics' backing arrays directly; the flag decision
// is the same µ + kσ > τ comparison in the same order as the per-pixel At4
// formulation it replaces.
func (r Rule) PixelFlags(st Stats) *imaging.Map {
	_, c, h, w := st.Mean.Dims4()
	out := imaging.NewMap(w, h)
	mean, std := st.Mean.Data, st.Std.Data
	for _, cls := range imaging.BusyRoadClasses() {
		ci := int(cls)
		if ci >= c {
			continue
		}
		base := ci * h * w
		for i, mu := range mean[base : base+h*w] {
			if mu+r.Sigmas*std[base+i] > r.Tau {
				out.Pix[i] = 1
			}
		}
	}
	return out
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
// This is the serving hot path, so the two full-image scans the seed
// implementation ran (Rule.PixelFlags plus a separate MaxScore loop) are
// fused into one pass over the statistics' backing arrays, and the moment
// buffers come from — and return to — the model replica's arena. The
// Verdict fields are bit-identical to the two-scan formulation: the same
// µ + kσ expression decides the flag, feeds the max, and is folded in the
// same class-major pixel order.
func (b *Bayesian) VerifyRegionCtx(ctx context.Context, sub *imaging.Image, rule Rule) (Verdict, error) {
	sc := b.Model.Scratch()
	st, err := b.mcMoments(ctx, sub, sc)
	if err != nil {
		return Verdict{}, err
	}
	return verdictFromMoments(st, sub.W, sub.H, rule, sc), nil
}

// verdictFromMoments applies the rule to finalized moments in one fused
// scan — the same µ + kσ expression decides the flag, feeds the max, and is
// folded in the same class-major pixel order as the seed's two-scan
// formulation. inW and inH are the verified region's input dimensions,
// which set the flagged-fraction denominator; the moment buffers return to
// the arena before the verdict escapes.
func verdictFromMoments(st Stats, inW, inH int, rule Rule, sc *nn.Scratch) Verdict {
	_, c, h, w := st.Mean.Dims4()
	mean, std := st.Mean.Data, st.Std.Data
	flags := imaging.NewMap(w, h)
	pix := flags.Pix
	flagged := 0
	var maxScore float32
	for _, cls := range imaging.BusyRoadClasses() {
		ci := int(cls)
		if ci >= c {
			continue
		}
		base := ci * h * w
		for i, mu := range mean[base : base+h*w] {
			s := mu + rule.Sigmas*std[base+i]
			if s > maxScore {
				maxScore = s
			}
			if s > rule.Tau && pix[i] == 0 {
				pix[i] = 1
				flagged++
			}
		}
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
