package monitor

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"safeland/internal/imaging"
	"safeland/internal/nn"
	"safeland/internal/segment"
	"safeland/internal/urban"
)

func tinyModel() *segment.Model {
	return segment.New(segment.Config{
		NumClasses:     imaging.NumClasses,
		StemChannels:   6,
		BranchChannels: 4,
		Dilations:      []int{1, 2},
		DropoutP:       0.5,
		Seed:           3,
	})
}

var trained struct {
	once   sync.Once
	model  *segment.Model
	scenes []*urban.Scene
}

// trainedTinyModel trains one shared model for all monitor tests. The model
// is only read afterwards (MCStats restores dropout mode), and Go runs tests
// within a package sequentially unless t.Parallel is used, which these tests
// avoid.
func trainedTinyModel(t *testing.T) (*segment.Model, []*urban.Scene) {
	t.Helper()
	trained.once.Do(func() {
		cfg := urban.DefaultConfig()
		cfg.W, cfg.H = 96, 96
		trained.scenes = urban.GenerateSet(cfg, urban.DefaultConditions(), 3, 800)
		mcfg := segment.DefaultConfig() // full-width net: calibrated σ
		mcfg.Seed = 3
		trained.model = segment.New(mcfg)
		segment.Train(trained.model, trained.scenes,
			segment.TrainConfig{Steps: 250, Batch: 2, CropSize: 64, LR: 0.01, Seed: 4})
	})
	return trained.model, trained.scenes
}

func TestMCStatsShapesAndRanges(t *testing.T) {
	m := tinyModel()
	b := NewBayesian(m, 11)
	b.Samples = 5
	img := imaging.NewImage(32, 32)
	st := b.MCStats(img)
	_, c, h, w := st.Mean.Dims4()
	if c != imaging.NumClasses || h != 32 || w != 32 {
		t.Fatalf("stats shape %v", st.Mean.Shape)
	}
	for i, v := range st.Mean.Data {
		if v < 0 || v > 1 {
			t.Fatalf("mean[%d]=%v outside [0,1]", i, v)
		}
		if st.Std.Data[i] < 0 {
			t.Fatalf("negative std at %d", i)
		}
	}
	// Means must sum to ~1 per pixel.
	var sum float32
	for ci := 0; ci < c; ci++ {
		sum += st.Mean.At4(0, ci, 10, 10)
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("mean probs sum %v", sum)
	}
	// Dropout must produce non-degenerate spread somewhere.
	var maxStd float32
	for _, v := range st.Std.Data {
		if v > maxStd {
			maxStd = v
		}
	}
	if maxStd == 0 {
		t.Error("MC dropout produced zero variance everywhere")
	}
}

func TestMCStatsDeterministicPerSeed(t *testing.T) {
	m := tinyModel()
	img := imaging.NewImage(32, 32)
	a := NewBayesian(m, 7)
	a.Samples = 4
	s1 := a.MCStats(img)
	s2 := a.MCStats(img)
	for i := range s1.Mean.Data {
		if s1.Mean.Data[i] != s2.Mean.Data[i] {
			t.Fatal("same-seed MC stats differ")
		}
	}
	bOther := NewBayesian(m, 8)
	bOther.Samples = 4
	s3 := bOther.MCStats(img)
	diff := false
	for i := range s1.Mean.Data {
		if s1.Mean.Data[i] != s3.Mean.Data[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds gave identical MC stats")
	}
}

func TestMCStatsRestoresDropoutMode(t *testing.T) {
	m := tinyModel()
	b := NewBayesian(m, 1)
	b.Samples = 3
	img := imaging.NewImage(16, 16)
	b.MCStats(img)
	// After MCStats, plain inference must be deterministic again.
	p1 := m.PredictProbs(img)
	p2 := m.PredictProbs(img)
	for i := range p1.Data {
		if p1.Data[i] != p2.Data[i] {
			t.Fatal("dropout left active after MCStats")
		}
	}
}

func TestMCStatsPanicsOnTooFewSamples(t *testing.T) {
	b := NewBayesian(tinyModel(), 1)
	b.Samples = 1
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for <2 samples")
		}
	}()
	b.MCStats(imaging.NewImage(8, 8))
}

func TestRuleConservatism(t *testing.T) {
	// The 3σ rule must flag every pixel the mean-only rule flags: the
	// monitor over-approximates, never under-approximates.
	st := Stats{Mean: nn.NewTensor(1, imaging.NumClasses, 4, 4), Std: nn.NewTensor(1, imaging.NumClasses, 4, 4)}
	rng := [16]float32{0.01, 0.05, 0.10, 0.12, 0.13, 0.2, 0.5, 0.9, 0.124, 0.126, 0.0, 1.0, 0.3, 0.07, 0.11, 0.125}
	for i, v := range rng {
		st.Mean.Set4(0, int(imaging.Road), i/4, i%4, v)
		st.Std.Set4(0, int(imaging.Road), i/4, i%4, 0.02)
	}
	meanOnly := Rule{Tau: 0.125, Sigmas: 0}
	threeSigma := Rule{Tau: 0.125, Sigmas: 3}
	f0 := meanOnly.PixelFlags(st)
	f3 := threeSigma.PixelFlags(st)
	for i := range f0.Pix {
		if f0.Pix[i] >= 0.5 && f3.Pix[i] < 0.5 {
			t.Fatalf("3σ rule cleared pixel %d that mean-only flagged", i)
		}
	}
	if f3.CountAbove(0.5) <= f0.CountAbove(0.5) {
		t.Error("3σ rule should flag strictly more pixels given nonzero std near τ")
	}
}

func TestRuleChecksAllBusyRoadClasses(t *testing.T) {
	st := Stats{Mean: nn.NewTensor(1, imaging.NumClasses, 1, 3), Std: nn.NewTensor(1, imaging.NumClasses, 1, 3)}
	// Pixel 0 high road score, pixel 1 high moving-car, pixel 2 high tree.
	st.Mean.Set4(0, int(imaging.Road), 0, 0, 0.5)
	st.Mean.Set4(0, int(imaging.MovingCar), 0, 1, 0.5)
	st.Mean.Set4(0, int(imaging.Tree), 0, 2, 0.9)
	flags := DefaultRule().PixelFlags(st)
	if flags.At(0, 0) != 1 || flags.At(1, 0) != 1 {
		t.Error("busy-road class scores not flagged")
	}
	if flags.At(2, 0) != 0 {
		t.Error("tree score flagged: rule must only consider busy-road composite")
	}
}

func TestVerifyRegionVerdicts(t *testing.T) {
	m, scenes := trainedTinyModel(t)
	b := NewBayesian(m, 5)
	b.Samples = 6

	// A region the generator guarantees road-free vs one with road: find
	// windows from ground truth.
	s := scenes[0]
	ci := imaging.NewClassIntegral(s.Labels)
	var safeRect, roadRect [4]int
	foundSafe, foundRoad := false, false
	const win = 32
	for y := 0; y+win <= s.Labels.H && !(foundSafe && foundRoad); y += 8 {
		for x := 0; x+win <= s.Labels.W; x += 8 {
			fr := ci.BusyRoadFraction(x, y, x+win, y+win)
			if fr == 0 && !foundSafe {
				safeRect = [4]int{x, y, win, win}
				foundSafe = true
			}
			if fr > 0.5 && !foundRoad {
				roadRect = [4]int{x, y, win, win}
				foundRoad = true
			}
		}
	}
	if !foundSafe || !foundRoad {
		t.Skip("scene lacks contrasting windows for this seed")
	}
	relaxed := Rule{Tau: 0.125, Sigmas: 3, MaxFlaggedFraction: 0.10}
	safeV := b.VerifyRegion(s.Image.Crop(safeRect[0], safeRect[1], safeRect[2], safeRect[3]), relaxed)
	roadV := b.VerifyRegion(s.Image.Crop(roadRect[0], roadRect[1], roadRect[2], roadRect[3]), relaxed)
	if roadV.FlaggedFraction <= safeV.FlaggedFraction {
		t.Errorf("road region flagged %.3f <= safe region %.3f",
			roadV.FlaggedFraction, safeV.FlaggedFraction)
	}
	if roadV.MaxScore <= safeV.MaxScore {
		t.Errorf("road max score %.3f <= safe %.3f", roadV.MaxScore, safeV.MaxScore)
	}
	if !roadV.Confirmed && roadV.Flags.CountAbove(0.5) == 0 {
		t.Error("rejected region carries no flags")
	}
}

func TestSweepTauMonotonic(t *testing.T) {
	m, scenes := trainedTinyModel(t)
	b := NewBayesian(m, 9)
	b.Samples = 5
	taus := []float32{0.05, 0.125, 0.3, 0.6}
	pts := SweepSignal(EvalScenes(b, scenes[:1]), SigmaInterval, taus)
	if len(pts) != len(taus) {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Quality.FlaggedFraction > pts[i-1].Quality.FlaggedFraction+1e-9 {
			t.Errorf("flagged fraction not non-increasing in τ: %v then %v",
				pts[i-1].Quality.FlaggedFraction, pts[i].Quality.FlaggedFraction)
		}
		if pts[i].Quality.FalseWarningRate > pts[i-1].Quality.FalseWarningRate+1e-9 {
			t.Errorf("false warnings not non-increasing in τ")
		}
	}
}

// TestSweepTauMatchesEvaluate pins that the τ sweep (SweepSignal with
// SigmaInterval) and Evaluate tally the same pixels the same way: each
// sweep point equals Evaluate at its rule, the core model's busy-road
// recall included.
func TestSweepTauMatchesEvaluate(t *testing.T) {
	m, scenes := trainedTinyModel(t)
	b := NewBayesian(m, 9)
	b.Samples = 5
	for _, pt := range SweepSignal(EvalScenes(b, scenes[:1]), SigmaInterval, []float32{0.05, 0.3}) {
		if q := Evaluate(b, scenes[:1], Rule{Tau: pt.Threshold, Sigmas: 3}); pt.Quality != q {
			t.Errorf("τ=%v: sweep %+v, Evaluate %+v", pt.Threshold, pt.Quality, q)
		}
	}
}

func TestEvaluateQualityRanges(t *testing.T) {
	m, scenes := trainedTinyModel(t)
	b := NewBayesian(m, 2)
	b.Samples = 5
	q := Evaluate(b, scenes[:1], DefaultRule())
	if q.Pixels != int64(scenes[0].Labels.W*scenes[0].Labels.H) {
		t.Errorf("pixels = %d", q.Pixels)
	}
	for name, v := range map[string]float64{
		"miss coverage": q.HazardMissCoverage,
		"false warning": q.FalseWarningRate,
		"flagged":       q.FlaggedFraction,
		"core recall":   q.CoreBusyRecall,
	} {
		if v < 0 || v > 1 {
			t.Errorf("%s = %v outside [0,1]", name, v)
		}
	}
	if q.String() == "" {
		t.Error("empty quality string")
	}
}

// pollCtx cancels itself after a fixed number of Err polls, so mid-trial
// cancellation is deterministic regardless of scheduling or timing.
type pollCtx struct {
	context.Context
	polls atomic.Int32
	limit int32
}

func (c *pollCtx) Err() error {
	if c.polls.Add(1) > c.limit {
		return context.Canceled
	}
	return nil
}

func TestMCStatsCtxCancelsMidTrial(t *testing.T) {
	m := tinyModel()
	b := NewBayesian(m, 11)
	b.Samples = 5
	img := imaging.NewImage(32, 32)

	// Uncancelled ctx variant must match the plain path bit for bit.
	want := b.MCStats(img)
	got, err := b.MCStatsCtx(context.Background(), img)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Mean.Data {
		if want.Mean.Data[i] != got.Mean.Data[i] || want.Std.Data[i] != got.Std.Data[i] {
			t.Fatal("MCStatsCtx diverges from MCStats")
		}
	}

	// A context dying a few layer-checks in aborts mid-sample: the limit is
	// far below the polls of a full 5-sample run but inside the first pass.
	ctx := &pollCtx{Context: context.Background(), limit: 3}
	if _, err := b.MCStatsCtx(ctx, img); err != context.Canceled {
		t.Fatalf("mid-trial cancel: err = %v, want context.Canceled", err)
	}
	if _, err := b.VerifyRegionCtx(&pollCtx{Context: context.Background(), limit: 3},
		img, DefaultRule()); err != context.Canceled {
		t.Fatalf("VerifyRegionCtx cancel: err = %v, want context.Canceled", err)
	}

	// Cancellation must not leave the model stuck in Monte-Carlo mode or
	// perturb a subsequent completed run.
	after := b.MCStats(img)
	for i := range want.Mean.Data {
		if want.Mean.Data[i] != after.Mean.Data[i] {
			t.Fatal("a cancelled trial perturbed the next run's MC sequence")
		}
	}
	det := m.PredictProbs(img)
	det2 := m.PredictProbs(img)
	for i := range det.Data {
		if det.Data[i] != det2.Data[i] {
			t.Fatal("dropout left always-on after a cancelled trial")
		}
	}
}
