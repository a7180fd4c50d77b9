package monitor

import (
	"math"
	"testing"

	"safeland/internal/imaging"
	"safeland/internal/nn"
	"safeland/internal/segment"
	"safeland/internal/urban"
)

func TestMCEntropyStatsDecomposition(t *testing.T) {
	m, scenes := trainedTinyModel(t)
	b := NewBayesian(m, 13)
	b.Samples = 6
	es := b.MCEntropyStats(scenes[0].Image)

	maxEnt := float32(math.Log(float64(imaging.NumClasses)))
	for i := range es.Predictive.Pix {
		p := es.Predictive.Pix[i]
		e := es.Expected.Pix[i]
		mi := es.MutualInformation.Pix[i]
		if p < 0 || p > maxEnt+1e-4 {
			t.Fatalf("predictive entropy %v outside [0, ln 8]", p)
		}
		if e < 0 || e > maxEnt+1e-4 {
			t.Fatalf("expected entropy %v outside [0, ln 8]", e)
		}
		if mi < 0 {
			t.Fatalf("negative mutual information %v", mi)
		}
		// MI = predictive − expected (clamped): Jensen guarantees
		// predictive ≥ expected up to float error, so MI ≈ p − e.
		if diff := float64(p - e - mi); diff > 1e-3 {
			t.Fatalf("MI decomposition broken: p=%v e=%v mi=%v", p, e, mi)
		}
	}
	// Mean/std must match the plain MCStats under the same seed.
	st := b.MCStats(scenes[0].Image)
	for i := range st.Mean.Data {
		if math.Abs(float64(st.Mean.Data[i]-es.Mean.Data[i])) > 1e-6 {
			t.Fatal("entropy stats diverge from MCStats mean under same seed")
		}
	}
}

// TestMCEntropyStatsMatchesNaiveReplay pins the entropy decomposition of
// the sample batch against the per-sample formulation: on a fresh replica,
// the whole network and a softmax per sample at full resolution, each
// pixel's sample entropy added into a float32 sum in sample order, then
// divided by the sample count. The moments must match naiveReplay and the
// expected entropy the sum bit for bit, on the trainable model and on a
// frozen clone, at an even and an odd crop, over two calls (the second
// replays the dropout records); the predictive entropy and the mutual
// information follow from them.
func TestMCEntropyStatsMatchesNaiveReplay(t *testing.T) {
	m := tinyModel()
	clone, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []*segment.Model{m, clone} {
		for _, side := range []int{24, 25} {
			b := NewBayesian(model, 21)
			b.Samples = 7
			img := noisyImage(side, int64(side))
			want := naiveReplay(t, m, b, img)
			ref, err := m.Clone()
			if err != nil {
				t.Fatal(err)
			}
			nn.SetDropoutMode(ref.Net, nn.AlwaysOn)
			nn.ReseedDropout(ref.Net, b.Seed)
			var expected []float32
			for s := 0; s < b.Samples; s++ {
				probs := nn.SoftmaxChannels(ref.Net.Forward(segment.ToTensor(img), false))
				_, c, h, w := probs.Dims4()
				if expected == nil {
					expected = make([]float32, h*w)
				}
				for i := range expected {
					var e float64
					for ci := 0; ci < c; ci++ {
						if p := float64(probs.Data[ci*h*w+i]); p > 1e-12 {
							e -= float64(p * math.Log(p))
						}
					}
					expected[i] += float32(e)
				}
			}
			for i := range expected {
				expected[i] /= float32(b.Samples)
			}
			predictive := entropyOf(want.Mean)
			for call := 0; call < 2; call++ {
				es := b.MCEntropyStats(img)
				for i := range want.Mean.Data {
					if es.Mean.Data[i] != want.Mean.Data[i] || es.Std.Data[i] != want.Std.Data[i] {
						t.Fatalf("frozen %v, %d px, call %d: moment %d = (%v, %v), naive replay (%v, %v)",
							model.Frozen(), side, call, i, es.Mean.Data[i], es.Std.Data[i], want.Mean.Data[i], want.Std.Data[i])
					}
				}
				for i, e := range expected {
					mi := max(predictive.Pix[i]-e, 0)
					if es.Expected.Pix[i] != e || es.Predictive.Pix[i] != predictive.Pix[i] || es.MutualInformation.Pix[i] != mi {
						t.Fatalf("frozen %v, %d px, call %d: pixel %d entropies (%v, %v, %v), naive replay (%v, %v, %v)",
							model.Frozen(), side, call, i, es.Predictive.Pix[i], es.Expected.Pix[i], es.MutualInformation.Pix[i],
							predictive.Pix[i], e, mi)
					}
				}
			}
		}
	}
}

// TestMCEntropyStatsOddCrop covers an odd crop: the stem rounds 25 px up
// to 26×26 statistics, and every entropy map must take their size (sized
// from the input, the maps were indexed past their end on the first
// sample).
func TestMCEntropyStatsOddCrop(t *testing.T) {
	b := NewBayesian(tinyModel(), 22)
	b.Samples = 3
	es := b.MCEntropyStats(noisyImage(25, 25))
	_, _, h, w := es.Mean.Dims4()
	if h != 26 || w != 26 {
		t.Fatalf("statistics %dx%d, want 26x26", w, h)
	}
	maps := map[string]*imaging.Map{
		"predictive": es.Predictive, "expected": es.Expected, "mutual information": es.MutualInformation,
	}
	for name, m := range maps {
		if m.W != w || m.H != h {
			t.Errorf("%s entropy map %dx%d, statistics %dx%d", name, m.W, m.H, w, h)
		}
	}
	for i, mi := range es.MutualInformation.Pix {
		if d := es.Predictive.Pix[i] - es.Expected.Pix[i]; mi < 0 || (d > 0 && mi != d) {
			t.Fatalf("pixel %d: mutual information %v, predictive − expected %v", i, mi, d)
		}
	}
}

func TestEntropySignalsDetectOOD(t *testing.T) {
	m, _ := trainedTinyModel(t)
	b := NewBayesian(m, 14)
	b.Samples = 6
	cfg := urban.DefaultConfig()
	cfg.W, cfg.H = 96, 96
	day := urban.Generate(cfg, urban.DefaultConditions(), 810)
	sunset := urban.Generate(cfg, urban.SunsetConditions(), 810)

	dayES := b.MCEntropyStats(day.Image)
	sunES := b.MCEntropyStats(sunset.Image)
	if sunES.Predictive.Mean() <= dayES.Predictive.Mean() {
		t.Error("predictive entropy should rise under distribution shift")
	}
	if sunES.MutualInformation.Mean() <= dayES.MutualInformation.Mean() {
		t.Error("mutual information should rise under distribution shift")
	}
}

func TestFlagsByMonotoneInThreshold(t *testing.T) {
	m, scenes := trainedTinyModel(t)
	b := NewBayesian(m, 15)
	b.Samples = 5
	es := b.MCEntropyStats(scenes[0].Image)
	for _, kind := range []UncertaintyKind{SigmaInterval, PredictiveEntropy, MutualInformation} {
		prev := -1
		for _, thr := range []float32{0.05, 0.125, 0.3, 0.8} {
			n := es.FlagsBy(kind, thr).CountAbove(0.5)
			if prev >= 0 && n > prev {
				t.Errorf("%v: flagged count increased with threshold (%d -> %d)", kind, prev, n)
			}
			prev = n
		}
	}
}

func TestSweepSignalShapes(t *testing.T) {
	m, scenes := trainedTinyModel(t)
	b := NewBayesian(m, 16)
	b.Samples = 5
	pts := SweepSignal(EvalScenes(b, scenes[:1]), MutualInformation, []float32{0.01, 0.05, 0.2})
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	for i, pt := range pts {
		if pt.Kind != MutualInformation {
			t.Error("kind not propagated")
		}
		q := pt.Quality
		if q.FlaggedFraction < 0 || q.FlaggedFraction > 1 || q.FalseWarningRate < 0 || q.FalseWarningRate > 1 {
			t.Errorf("point %d out of range: %+v", i, q)
		}
		if i > 0 && q.FlaggedFraction > pts[i-1].Quality.FlaggedFraction+1e-9 {
			t.Error("flagged fraction not non-increasing in threshold")
		}
	}
}

func TestUncertaintyKindStrings(t *testing.T) {
	for k, want := range map[UncertaintyKind]string{
		SigmaInterval:     "sigma-interval",
		PredictiveEntropy: "predictive-entropy",
		MutualInformation: "mutual-information",
	} {
		if k.String() != want {
			t.Errorf("kind %d = %q, want %q", k, k.String(), want)
		}
	}
}
