package core

import (
	"context"
	"math"
	"sync"
	"testing"

	"safeland/internal/imaging"
	"safeland/internal/monitor"
	"safeland/internal/segment"
	"safeland/internal/sora"
	"safeland/internal/urban"
)

func TestCandidatesRespectBufferAndSafety(t *testing.T) {
	// Synthetic prediction: a vertical road strip at x in [40, 56), grass
	// elsewhere.
	pred := imaging.NewLabelMap(128, 128)
	for i := range pred.Pix {
		pred.Pix[i] = imaging.LowVegetation
	}
	pred.FillRect(40, 0, 56, 128, imaging.Road)
	const mpp = 0.5
	cfg := ZoneConfig{ZoneSizeM: 8, BufferM: 10, MinSafeFraction: 0.9}
	cands := Candidates(pred, mpp, cfg)
	if len(cands) == 0 {
		t.Fatal("no candidates on a mostly-grass map")
	}
	bufferPx := cfg.BufferM / mpp
	for _, c := range cands {
		if c.MinRoadDistM < cfg.BufferM {
			t.Fatalf("candidate at (%d,%d) closer than buffer: %.1f m", c.X0, c.Y0, c.MinRoadDistM)
		}
		// Verify geometric distance to the road strip directly.
		for _, x := range []int{c.X0, c.X0 + c.SizePx - 1} {
			dist := math.Min(math.Abs(float64(x-56)), math.Abs(float64(x-39)))
			if x >= 40 && x < 56 {
				dist = 0
			}
			if dist < bufferPx-float64(c.SizePx) && c.MinRoadDistM >= cfg.BufferM {
				// Candidate spans columns whose distance is clearly under
				// buffer: would be a contradiction.
				if dist < bufferPx && distToZoneEdge(c, x) == 0 {
					t.Fatalf("candidate columns violate buffer at x=%d", x)
				}
			}
		}
		if c.SafeFraction < cfg.MinSafeFraction {
			t.Fatalf("candidate safe fraction %.2f below threshold", c.SafeFraction)
		}
	}
	// Ranking: scores non-increasing.
	for i := 1; i < len(cands); i++ {
		if cands[i].Score > cands[i-1].Score {
			t.Fatal("candidates not sorted by score")
		}
	}
}

func distToZoneEdge(c Candidate, x int) float64 {
	if x >= c.X0 && x < c.X0+c.SizePx {
		return 0
	}
	return 1
}

func TestCandidatesEmptyWhenAllRoad(t *testing.T) {
	pred := imaging.NewLabelMap(64, 64)
	for i := range pred.Pix {
		pred.Pix[i] = imaging.Road
	}
	if cands := Candidates(pred, 0.5, DefaultZoneConfig()); len(cands) != 0 {
		t.Fatalf("got %d candidates on an all-road map", len(cands))
	}
}

func TestCandidatesHomeBias(t *testing.T) {
	pred := imaging.NewLabelMap(128, 128)
	for i := range pred.Pix {
		pred.Pix[i] = imaging.LowVegetation
	}
	const mpp = 0.5
	cfg := ZoneConfig{ZoneSizeM: 8, BufferM: 0, MinSafeFraction: 0.9, MaxCandidates: 1}
	cfg.HomeX, cfg.HomeY = 5, 5
	near := Candidates(pred, mpp, cfg)[0]
	cfg.HomeX, cfg.HomeY = 59, 59
	far := Candidates(pred, mpp, cfg)[0]
	nx, ny := near.CenterM(mpp)
	fx, fy := far.CenterM(mpp)
	dNear := math.Hypot(nx-5, ny-5)
	dFar := math.Hypot(fx-5, fy-5)
	if dNear >= dFar {
		t.Errorf("home bias ineffective: best zone for home (5,5) at %.1f m, for (59,59) at %.1f m", dNear, dFar)
	}
}

func TestCandidatesMaxCap(t *testing.T) {
	pred := imaging.NewLabelMap(128, 128)
	for i := range pred.Pix {
		pred.Pix[i] = imaging.Clutter
	}
	cfg := ZoneConfig{ZoneSizeM: 6, BufferM: 0, MinSafeFraction: 0.5, MaxCandidates: 5}
	if got := len(Candidates(pred, 0.5, cfg)); got != 5 {
		t.Errorf("candidate cap: got %d, want 5", got)
	}
}

func TestDecisionModuleStates(t *testing.T) {
	dm := NewDecisionModule(2)
	if dm.State() != Proposing {
		t.Fatal("fresh DM not proposing")
	}
	reject := monitor.Verdict{Confirmed: false, FlaggedFraction: 0.4}
	confirm := monitor.Verdict{Confirmed: true}

	if st := dm.Offer(reject); st != Proposing {
		t.Fatalf("after 1 reject of 2: %v", st)
	}
	if st := dm.Offer(confirm); st != Landing {
		t.Fatalf("confirmation should land: %v", st)
	}
	if dm.Confirmed() == nil || !dm.Confirmed().Confirmed {
		t.Fatal("confirmed verdict not recorded")
	}
	// Offers after landing are ignored.
	if st := dm.Offer(reject); st != Landing {
		t.Fatal("DM left Landing state")
	}

	dm.Reset()
	if dm.State() != Proposing || dm.Trials() != 0 {
		t.Fatal("reset incomplete")
	}
	dm.Offer(reject)
	if st := dm.Offer(reject); st != Aborted {
		t.Fatalf("budget exhaustion should abort: %v", st)
	}

	dm2 := NewDecisionModule(3)
	if st := dm2.Exhausted(); st != Aborted {
		t.Fatalf("exhausted candidates should abort: %v", st)
	}
	if NewDecisionModule(0).MaxTrials != 1 {
		t.Error("trial budget floor missing")
	}
}

var pipeOnce struct {
	sync.Once
	pipe   *Pipeline
	scenes []*urban.Scene
}

// trainedPipeline builds one shared trained pipeline for the heavier tests.
func trainedPipeline(t *testing.T) (*Pipeline, []*urban.Scene) {
	t.Helper()
	pipeOnce.Do(func() {
		cfg := urban.DefaultConfig()
		pipeOnce.scenes = urban.GenerateSet(cfg, urban.DefaultConditions(), 4, 300)
		mcfg := segment.DefaultConfig()
		mcfg.Seed = 5
		m := segment.New(mcfg)
		segment.Train(m, pipeOnce.scenes, segment.TrainConfig{
			Steps: 300, Batch: 2, CropSize: 64, LR: 0.01, Seed: 6,
		})
		pipeOnce.pipe = NewPipeline(m, 99)
		pipeOnce.pipe.Monitor.Samples = 6 // trimmed for test speed
	})
	return pipeOnce.pipe, pipeOnce.scenes
}

func TestPipelineSelectsSafeZone(t *testing.T) {
	p, scenes := trainedPipeline(t)
	confirmedSomewhere := false
	for _, s := range scenes {
		res := p.SelectAndVerify(s.Image, s.MPP)
		if res.CandidateCount == 0 {
			continue
		}
		if res.Confirmed {
			confirmedSomewhere = true
			// The confirmed zone must be truly road-free with margin: check
			// ground truth (the whole point of the architecture).
			ci := imaging.NewClassIntegral(s.Labels)
			z := res.Zone
			if fr := ci.BusyRoadFraction(z.X0, z.Y0, z.X0+z.SizePx, z.Y0+z.SizePx); fr > 0 {
				t.Errorf("confirmed zone contains %.3f busy-road ground truth", fr)
			}
			if res.State != Landing {
				t.Error("confirmed result not in Landing state")
			}
		}
	}
	if !confirmedSomewhere {
		t.Error("pipeline confirmed no zone across 4 scenes — monitor too strict or model too weak")
	}
}

func TestPipelineResultTrace(t *testing.T) {
	p, scenes := trainedPipeline(t)
	res := p.SelectAndVerify(scenes[0].Image, scenes[0].MPP)
	if len(res.Trials) == 0 && res.CandidateCount > 0 {
		t.Error("no trials recorded despite candidates")
	}
	if len(res.Trials) > p.MaxTrials {
		t.Errorf("%d trials exceed budget %d", len(res.Trials), p.MaxTrials)
	}
	if res.Describe() == "" {
		t.Error("empty description")
	}
	if res.Pred == nil || res.Pred.W != scenes[0].Image.W {
		t.Error("prediction not attached to result")
	}
}

func TestPipelinePlanLanding(t *testing.T) {
	p, scenes := trainedPipeline(t)
	s := scenes[0]
	tx, ty, ok := p.PlanLanding(context.Background(), s, s.Layout.WorldW/2, s.Layout.WorldH/2)
	if !ok {
		t.Skip("no confirmed zone in this scene")
	}
	if tx < 0 || ty < 0 || tx > s.Layout.WorldW || ty > s.Layout.WorldH {
		t.Fatalf("landing target (%.1f, %.1f) outside world", tx, ty)
	}
	// Ground truth at the target must not be busy road.
	px, py := int(tx/s.MPP), int(ty/s.MPP)
	if s.Labels.At(px, py).BusyRoad() {
		t.Error("planned landing point is on a busy road in ground truth")
	}
	// Zone config restored after planning.
	if p.Zones.HomeX != 0 || p.Zones.HomeY != 0 {
		t.Error("PlanLanding leaked home bias into pipeline config")
	}
}

// TestPipelineSafetyOnOOD asserts the safety property under distribution
// shift: whatever the pipeline confirms on out-of-distribution imagery, the
// confirmed zone must not cover busy road in ground truth — and the far
// more likely outcome is that nothing is confirmed at all.
// TestSelectorsRejectOddFrame: the downsampling model cannot segment an
// odd frame, so the core selectors return CheckSize's error and planning
// reports no zone (all of them panicked on a 63×64 frame).
func TestSelectorsRejectOddFrame(t *testing.T) {
	m := segment.New(segment.DefaultConfig())
	p := NewPipeline(m, 1)
	h := NewHybrid(p)
	cfg := urban.DefaultConfig()
	cfg.W, cfg.H = 64, 64
	scene := urban.Generate(cfg, urban.DefaultConditions(), 1)
	scene.Image = scene.Image.Crop(0, 0, 63, 64)
	want := m.CheckSize(scene.Image)
	if want == nil {
		t.Fatal("CheckSize accepts a 63x64 frame")
	}
	ctx := context.Background()
	if _, err := p.SelectWithConfigCtx(ctx, scene.Image, scene.MPP, p.Zones); err == nil || err.Error() != want.Error() {
		t.Errorf("Pipeline.SelectWithConfigCtx error %v, want %v", err, want)
	}
	if _, err := h.SelectWithConfigCtx(ctx, scene, p.Zones); err == nil || err.Error() != want.Error() {
		t.Errorf("Hybrid.SelectWithConfigCtx error %v, want %v", err, want)
	}
	if _, _, ok := p.PlanLanding(ctx, scene, 10, 10); ok {
		t.Error("Pipeline.PlanLanding reports a zone on an odd frame")
	}
	if _, _, ok := h.PlanLanding(ctx, scene, 10, 10); ok {
		t.Error("Hybrid.PlanLanding reports a zone on an odd frame")
	}
}

func TestPipelineSafetyOnOOD(t *testing.T) {
	p, _ := trainedPipeline(t)
	cfg := urban.DefaultConfig()
	for seed := int64(0); seed < 3; seed++ {
		scene := urban.Generate(cfg, urban.SunsetConditions(), 900+seed)
		res := p.SelectAndVerify(scene.Image, scene.MPP)
		if !res.Confirmed {
			continue // abort is the expected, safe outcome
		}
		ci := imaging.NewClassIntegral(scene.Labels)
		z := res.Zone
		if fr := ci.BusyRoadFraction(z.X0, z.Y0, z.X0+z.SizePx, z.Y0+z.SizePx); fr > 0.05 {
			t.Errorf("seed %d: confirmed OOD zone covers %.2f busy road", seed, fr)
		}
	}
}

func TestCandidatesBorderMarginAndDiversity(t *testing.T) {
	pred := imaging.NewLabelMap(96, 96)
	for i := range pred.Pix {
		pred.Pix[i] = imaging.LowVegetation
	}
	cfg := ZoneConfig{ZoneSizeM: 8, BufferM: 0, MinSafeFraction: 0.9}
	cands := Candidates(pred, 0.5, cfg)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	zonePx := cands[0].SizePx
	margin := zonePx / 4
	for _, c := range cands {
		if c.X0 < margin || c.Y0 < margin ||
			c.X0+zonePx > 96-margin || c.Y0+zonePx > 96-margin {
			t.Fatalf("candidate (%d,%d) violates border margin %d", c.X0, c.Y0, margin)
		}
	}
	// Diversity: no two kept candidates overlap.
	for i := range cands {
		for j := i + 1; j < len(cands); j++ {
			if abs(cands[i].X0-cands[j].X0) < zonePx && abs(cands[i].Y0-cands[j].Y0) < zonePx {
				t.Fatalf("candidates %d and %d overlap", i, j)
			}
		}
	}
}

// TestCandidatesBorderMarginPx pins what BorderMarginPx means: 0 keeps a
// quarter zone from the border, a negative value keeps no margin and a
// positive one that many pixels. Home sits at the top-left corner, so the
// best candidate is the outermost window the margin allows.
func TestCandidatesBorderMarginPx(t *testing.T) {
	pred := imaging.NewLabelMap(64, 64)
	for i := range pred.Pix {
		pred.Pix[i] = imaging.LowVegetation
	}
	for _, tc := range []struct{ margin, want int }{{0, 4}, {-1, 0}, {-7, 0}, {3, 3}} {
		// A 16 px zone at 0.5 m per pixel: a quarter zone is 4 px.
		cfg := ZoneConfig{ZoneSizeM: 8, MinSafeFraction: 0.9, Stride: 1, BorderMarginPx: tc.margin, HomeX: 0.01, HomeY: 0.01}
		cands := Candidates(pred, 0.5, cfg)
		if len(cands) == 0 {
			t.Fatalf("BorderMarginPx %d: no candidates", tc.margin)
		}
		if c := cands[0]; c.X0 != tc.want || c.Y0 != tc.want {
			t.Errorf("BorderMarginPx %d: best zone at (%d,%d), want (%d,%d)", tc.margin, c.X0, c.Y0, tc.want, tc.want)
		}
	}
}

func TestEvenHelpers(t *testing.T) {
	if evenSize(11) != 12 || evenSize(12) != 12 {
		t.Error("evenSize wrong")
	}
	if evenAlign(120, 128, 11) != 116 {
		t.Errorf("evenAlign = %d, want 116", evenAlign(120, 128, 11))
	}
	if evenAlign(10, 128, 12) != 10 {
		t.Error("evenAlign shifted needlessly")
	}
}

func TestSelfAssessmentLevels(t *testing.T) {
	// Bare implementation with in-context testing: integrity Medium (L1,
	// L2, M1 hold; H1 needs OOD), assurance Low (M2 authority data absent).
	integ, assur := sora.EvaluateEL(SelfAssessment(Claims{InContextTesting: true}))
	if integ != sora.Medium {
		t.Errorf("integrity = %v, want Medium", integ)
	}
	if assur != sora.Low {
		t.Errorf("assurance = %v, want Low", assur)
	}
	// With authority-verified data and OOD validation: assurance Medium,
	// integrity High.
	full := Claims{InContextTesting: true, AuthorityVerifiedData: true, OODValidation: true}
	integ, assur = sora.EvaluateEL(SelfAssessment(full))
	if integ != sora.High || assur != sora.Medium {
		t.Errorf("full claims = %v/%v, want High/Medium", integ, assur)
	}
	m := MitigationClaim(full)
	if m.Robustness() != sora.Medium {
		t.Errorf("mitigation robustness = %v, want Medium", m.Robustness())
	}
	// Third party pushes assurance to High.
	full.ThirdPartyValidation = true
	if _, assur = sora.EvaluateEL(SelfAssessment(full)); assur != sora.High {
		t.Errorf("third-party assurance = %v, want High", assur)
	}
}

func TestLandable(t *testing.T) {
	if !landable(imaging.LowVegetation) || !landable(imaging.Clutter) {
		t.Error("vegetation and clutter must be landable")
	}
	for _, c := range []imaging.Class{imaging.Road, imaging.Building, imaging.Tree,
		imaging.Humans, imaging.MovingCar, imaging.StaticCar} {
		if landable(c) {
			t.Errorf("%v must not be landable", c)
		}
	}
}

// TestPipelineTrialVerdictsMatchNaivePath pins the pipeline's monitor
// wiring: every verdict recorded in a selection's trials must be
// byte-identical to the naive per-crop VerifyRegion over the candidate's
// CropRect.
func TestPipelineTrialVerdictsMatchNaivePath(t *testing.T) {
	p, scenes := trainedPipeline(t)
	trialsChecked := 0
	for _, s := range scenes {
		res := p.SelectAndVerify(s.Image, s.MPP)
		for ti, trial := range res.Trials {
			x0, y0, size := trial.Candidate.CropRect(s.Image.W, s.Image.H)
			want := p.Monitor.VerifyRegion(s.Image.Crop(x0, y0, size, size), p.Rule)
			got := trial.Verdict
			if got.Confirmed != want.Confirmed || got.FlaggedFraction != want.FlaggedFraction ||
				got.MaxScore != want.MaxScore {
				t.Fatalf("trial %d verdict diverged from naive path:\n  got:  %+v\n  want: %+v", ti, got, want)
			}
			for i := range got.Flags.Pix {
				if got.Flags.Pix[i] != want.Flags.Pix[i] {
					t.Fatalf("trial %d flag map differs at pixel %d", ti, i)
				}
			}
			trialsChecked++
		}
	}
	if trialsChecked == 0 {
		t.Fatal("no trials to check — candidate generation produced nothing")
	}
}
