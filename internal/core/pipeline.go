package core

import (
	"context"
	"fmt"

	"safeland/internal/imaging"
	"safeland/internal/monitor"
	"safeland/internal/segment"
)

// Pipeline is the full Figure 2 landing-zone selection architecture: the
// core function (deterministic MSDnet + zone selection), the Bayesian
// monitor verifying cropped candidates, and the Decision Module.
type Pipeline struct {
	Model   *segment.Model
	Monitor *monitor.Bayesian
	Rule    monitor.Rule
	Zones   ZoneConfig
	// MaxTrials is the Decision Module budget per emergency.
	MaxTrials int
}

// NewPipeline assembles the architecture around a trained model with the
// paper's monitor settings (10 MC samples, τ = 0.125, 3σ).
func NewPipeline(m *segment.Model, seed int64) *Pipeline {
	rule := monitor.DefaultRule()
	// Zone confirmation tolerates a flagged minority: the conservative 3σ
	// rule flags class boundaries and texture ambiguities even on safe
	// ground (the paper observes the same over-approximation). The hard
	// geometric invariants (no predicted busy-road pixel, drift buffer,
	// landable majority) are enforced upstream and never relax; this
	// tolerance only trades zone availability against monitor strictness —
	// experiment E10 maps that trade.
	rule.MaxFlaggedFraction = 0.25
	return &Pipeline{
		Model:     m,
		Monitor:   monitor.NewBayesian(m, seed),
		Rule:      rule,
		Zones:     DefaultZoneConfig(),
		MaxTrials: 4,
	}
}

// Trial records one verified candidate.
type Trial struct {
	Candidate Candidate
	Verdict   monitor.Verdict
}

// Result is the outcome of one emergency landing-zone selection.
type Result struct {
	// Confirmed is true when a zone passed the monitor.
	Confirmed bool
	// Zone is the confirmed candidate (valid only when Confirmed).
	Zone Candidate
	// Trials lists every candidate offered to the monitor, in order.
	Trials []Trial
	// CandidateCount is the number of zones the core function proposed.
	CandidateCount int
	// Pred is the deterministic segmentation the selection was based on.
	Pred *imaging.LabelMap
	// State is the final Decision Module state.
	State DMState
	// UsedBufferM is the road buffer that produced the candidates; smaller
	// than the configured buffer when the geometry forced degraded mode.
	UsedBufferM float64
}

// SelectAndVerify runs the complete pipeline on one on-board image with the
// pipeline's configured zone settings: SelectWithConfigCtx with p.Zones,
// under a context that never cancels.
func (p *Pipeline) SelectAndVerify(img *imaging.Image, mpp float64) Result {
	res, _ := p.SelectWithConfigCtx(context.Background(), img, mpp, p.Zones)
	return res
}

// SelectWithConfigCtx runs the complete pipeline on one on-board image:
// segment, propose candidates, verify each with the Bayesian monitor, and
// let the Decision Module confirm, retry or abort. The zone configuration
// is a per-call value: the pipeline itself is never mutated, so one
// Pipeline may serve many differently-parameterized selections (callers
// that need parallelism still need one model replica per goroutine; see
// Replica).
//
// When the configured drift buffer fits nowhere in the scene (dense street
// grids), the buffer is relaxed stepwise. The hard invariant — no predicted
// busy-road pixel inside the zone, landable-surface majority — never
// relaxes; only the margin shrinks. This mirrors the Table III structure:
// the low-integrity criterion (no high-risk areas in the zone) is absolute,
// the medium-integrity drift margin degrades before the flight aborts.
//
// Cancellation is threaded through the whole perception stack: the
// segmentation forward pass, every Monte-Carlo monitor trial, and the gaps
// between trials all honor ctx. A cancelled selection returns ctx's error
// together with the partial Result accumulated so far (completed trials
// are kept, Confirmed stays false). A selection that completes is
// byte-identical to an uncancelled run: cancellation never perturbs the
// Monte-Carlo sequences of surviving calls, because the monitor reseeds
// per trial.
//
// The monitor verifies each candidate as its own crop, exactly as the
// paper's Figure 2 draws it.
func (p *Pipeline) SelectWithConfigCtx(ctx context.Context, img *imaging.Image, mpp float64, cfg ZoneConfig) (Result, error) {
	return p.selectCtx(ctx, img, mpp, cfg, nil)
}

// selectCtx is the one trial loop behind Pipeline and Hybrid: segment,
// propose candidates on the buffer ladder (keep, when non-nil, filters and
// re-ranks each rung's candidates), verify each candidate's crop with the
// monitor, and let the Decision Module confirm, retry or abort.
func (p *Pipeline) selectCtx(ctx context.Context, img *imaging.Image, mpp float64, cfg ZoneConfig, keep func([]Candidate) []Candidate) (Result, error) {
	pred, err := p.Model.PredictCtx(ctx, img)
	if err != nil {
		return Result{}, err
	}
	cands, bufferM := ladder(pred, mpp, cfg, keep)
	res := Result{Pred: pred, CandidateCount: len(cands), UsedBufferM: bufferM}
	dm := NewDecisionModule(p.MaxTrials)
	for _, cand := range cands {
		x0, y0, size := cand.CropRect(img.W, img.H)
		verdict, err := p.Monitor.VerifyRegionCtx(ctx, img.Crop(x0, y0, size, size), p.Rule)
		if err != nil {
			return res, err
		}
		res.Trials = append(res.Trials, Trial{Candidate: cand, Verdict: verdict})
		switch dm.Offer(verdict) {
		case Landing:
			res.Confirmed = true
			res.Zone = cand
			res.State = Landing
			return res, nil
		case Aborted:
			res.State = Aborted
			return res, nil
		}
	}
	res.State = dm.Exhausted()
	return res, nil
}

// evenSize rounds a crop size up to even so the downsampling model accepts
// it.
func evenSize(s int) int {
	if s%2 == 1 {
		return s + 1
	}
	return s
}

// evenAlign shifts a crop origin left when the even-rounded size would
// exceed the image bounds.
func evenAlign(x0, w, size int) int {
	if x0+evenSize(size) > w {
		return w - evenSize(size)
	}
	return x0
}

// Replica returns an independent pipeline around the given model replica,
// inheriting p's monitor settings, rule, zone configuration and trial
// budget. The two pipelines share no mutable state, so they may run
// concurrently; the monitor seed carries over, keeping Monte-Carlo sample
// sequences — and therefore verdicts — identical to the original's.
func (p *Pipeline) Replica(m *segment.Model) *Pipeline {
	mon := *p.Monitor
	mon.Model = m
	q := *p
	q.Model = m
	q.Monitor = &mon
	return &q
}

// Describe renders a short trace of a result for logs and examples.
func (r Result) Describe() string {
	if r.Confirmed {
		return fmt.Sprintf("confirmed zone at (%d,%d) size %dpx after %d trial(s) — road dist %.1f m, safe %.2f",
			r.Zone.X0, r.Zone.Y0, r.Zone.SizePx, len(r.Trials), r.Zone.MinRoadDistM, r.Zone.SafeFraction)
	}
	return fmt.Sprintf("aborted after %d trial(s) of %d candidates", len(r.Trials), r.CandidateCount)
}
