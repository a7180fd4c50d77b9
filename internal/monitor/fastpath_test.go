package monitor

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"safeland/internal/imaging"
	"safeland/internal/nn"
	"safeland/internal/segment"
)

func noisyImage(side int, seed int64) *imaging.Image {
	rng := rand.New(rand.NewSource(seed))
	img := imaging.NewImage(side, side)
	for i := range img.Pix {
		img.Pix[i] = imaging.RGB{R: rng.Float32(), G: rng.Float32(), B: rng.Float32()}
	}
	return img
}

// TestMCStatsMatchesNaiveReplay pins the Monte-Carlo fast path — the
// deterministic prefix computed once, the dropout decisions replayed from
// each layer's record, the softmax taken before the trailing upsample —
// against the seed formulation that re-ran the whole network and its
// softmax on every sample. The reference runs on a fresh Clone whose
// dropouts were never reseeded, so it draws its masks from the source and
// never from the record under test. It covers the served 24 px crop, an
// odd 25 px crop (the stem rounds up: 26×26 statistics), 2 and 10 samples,
// and two consecutive calls — the second replays the record — on the
// trainable model and on a frozen clone, which runs the fused inference
// network.
func TestMCStatsMatchesNaiveReplay(t *testing.T) {
	m := tinyModel()
	clone, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []*segment.Model{m, clone} {
		for _, side := range []int{24, 25, 32} {
			for _, samples := range []int{2, 10} {
				b := NewBayesian(model, 21)
				b.Samples = samples
				img := noisyImage(side, int64(side))
				want := naiveReplay(t, m, b, img)
				for call := 0; call < 2; call++ {
					got := b.MCStats(img)
					if !got.Mean.SameShape(want.Mean) {
						t.Fatalf("%d px: shape %v, naive replay %v", side, got.Mean.Shape, want.Mean.Shape)
					}
					for i := range want.Mean.Data {
						if got.Mean.Data[i] != want.Mean.Data[i] || got.Std.Data[i] != want.Std.Data[i] {
							t.Fatalf("frozen %v, %d px, %d samples, call %d: element %d = (%v, %v), naive replay (%v, %v)",
								model.Frozen(), side, samples, call, i, got.Mean.Data[i], got.Std.Data[i], want.Mean.Data[i], want.Std.Data[i])
						}
					}
				}
			}
		}
	}
}

// FuzzMCStatsMatchesNaiveReplay fuzzes the sample batch against the
// per-sample oracle: a crop of 2-40 px (odd sides round up in the stem),
// 2-12 samples, any seed, on the trainable model or a frozen clone. Each
// input makes three calls on one replica — the crop, another size, the
// crop again — so the third replays the dropout records after another N
// made every layer rebuild its sample-minor view; each must match
// naiveReplay bit for bit.
func FuzzMCStatsMatchesNaiveReplay(f *testing.F) {
	f.Add(uint8(22), uint8(23), uint8(8), int64(21), true)
	f.Add(uint8(23), uint8(30), uint8(0), int64(-5), false)
	f.Add(uint8(0), uint8(38), uint8(10), int64(7), true)
	f.Add(uint8(38), uint8(1), uint8(3), int64(1), false)
	m := tinyModel()
	clone, err := m.Clone()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, side, other, samples uint8, seed int64, frozen bool) {
		model := m
		if frozen {
			model = clone
		}
		b := NewBayesian(model, seed)
		b.Samples = 2 + int(samples%11)
		for call, px := range []int{2 + int(side%39), 2 + int(other%39), 2 + int(side%39)} {
			img := noisyImage(px, int64(px))
			want := naiveReplay(t, m, b, img)
			got := b.MCStats(img)
			if !got.Mean.SameShape(want.Mean) {
				t.Fatalf("%d px: shape %v, naive replay %v", px, got.Mean.Shape, want.Mean.Shape)
			}
			for i := range want.Mean.Data {
				if got.Mean.Data[i] != want.Mean.Data[i] || got.Std.Data[i] != want.Std.Data[i] {
					t.Fatalf("frozen %v, %d px, %d samples, call %d: element %d = (%v, %v), naive replay (%v, %v)",
						frozen, px, b.Samples, call, i, got.Mean.Data[i], got.Std.Data[i], want.Mean.Data[i], want.Std.Data[i])
				}
			}
		}
	})
}

// TestCancelInBatchLeavesNextVerdictBitIdentical cancels a 24 px, 10-sample
// verdict at each of its context polls in turn — the stem's, then each
// layer of the batched suffix and each branch conv of the concat — on the
// trainable model and on a frozen clone: each cancelled call must return
// ctx's error, and the verdict after it must be the uncancelled verdict
// bit for bit, flags and all.
func TestCancelInBatchLeavesNextVerdictBitIdentical(t *testing.T) {
	m := tinyModel()
	clone, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	img := noisyImage(24, 5)
	rule := Rule{Tau: 0.3, Sigmas: 1, MaxFlaggedFraction: 0.5}
	for _, model := range []*segment.Model{m, clone} {
		b := NewBayesian(model, 13)
		want := b.VerifyRegion(img, rule)
		count := &pollCtx{Context: context.Background(), limit: 1 << 30}
		if _, err := b.VerifyRegionCtx(count, img, rule); err != nil {
			t.Fatal(err)
		}
		polls := count.polls.Load()
		if polls < 5 {
			t.Fatalf("frozen %v: a verdict polls its context %d times, want one per layer and branch conv", model.Frozen(), polls)
		}
		for limit := int32(0); limit < polls; limit++ {
			if _, err := b.VerifyRegionCtx(&pollCtx{Context: context.Background(), limit: limit}, img, rule); err != context.Canceled {
				t.Fatalf("frozen %v, cancelled at poll %d of %d: err = %v, want context.Canceled", model.Frozen(), limit+1, polls, err)
			}
			got := b.VerifyRegion(img, rule)
			if got.Confirmed != want.Confirmed || got.FlaggedFraction != want.FlaggedFraction || got.MaxScore != want.MaxScore {
				t.Fatalf("frozen %v, after a cancel at poll %d: verdict %+v, want %+v", model.Frozen(), limit+1, got, want)
			}
			for i := range want.Flags.Pix {
				if got.Flags.Pix[i] != want.Flags.Pix[i] {
					t.Fatalf("frozen %v, after a cancel at poll %d: flag %d = %v, want %v", model.Frozen(), limit+1, i, got.Flags.Pix[i], want.Flags.Pix[i])
				}
			}
		}
	}
}

// naiveReplay computes b's statistics for img the seed's way: the whole
// network and a softmax per sample, on a fresh replica of m.
func naiveReplay(t *testing.T, m *segment.Model, b *Bayesian, img *imaging.Image) Stats {
	t.Helper()
	ref, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	nn.SetDropoutMode(ref.Net, nn.AlwaysOn)
	nn.ReseedDropout(ref.Net, b.Seed)
	var sum, sumSq *nn.Tensor
	for s := 0; s < b.Samples; s++ {
		probs := nn.SoftmaxChannels(ref.Net.Forward(segment.ToTensor(img), false))
		if sum == nil {
			sum = probs.ZerosLike()
			sumSq = probs.ZerosLike()
		}
		for i, v := range probs.Data {
			sum.Data[i] += v
			sumSq.Data[i] += v * v
		}
	}
	n := float32(b.Samples)
	for i := range sum.Data {
		mu := sum.Data[i] / n
		sum.Data[i] = mu
		v := sumSq.Data[i]/n - mu*mu
		if v < 0 {
			v = 0
		}
		sumSq.Data[i] = float32(math.Sqrt(float64(v)))
	}
	return Stats{Mean: sum, Std: sumSq}
}

// TestVerifyRegionMatchesTwoScanReference pins the fused statistics scan:
// Verdict must be field-identical to the seed formulation (a per-pixel
// scan over At4 for the flags and MaxScore, then CountAbove) on the
// full-resolution statistics, on the trainable model and on a frozen
// clone. The reference scan is written out here, apart from ruleScan,
// which PixelFlags and the verdict share.
func TestVerifyRegionMatchesTwoScanReference(t *testing.T) {
	m := tinyModel()
	clone, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	for name, model := range map[string]*segment.Model{"trainable": m, "frozen": clone} {
		t.Run(name, func(t *testing.T) { verifyRegionMatchesTwoScan(t, model) })
	}
}

func verifyRegionMatchesTwoScan(t *testing.T, m *segment.Model) {
	t.Helper()
	b := NewBayesian(m, 31)
	b.Samples = 5
	img := noisyImage(32, 32)

	for _, rule := range []Rule{
		DefaultRule(),
		{Tau: 0.125, Sigmas: 3, MaxFlaggedFraction: 0.25},
		{Tau: 0.5, Sigmas: 1, MaxFlaggedFraction: 1},
		{Tau: 0.01, Sigmas: 5, MaxFlaggedFraction: 0},
	} {
		got := b.VerifyRegion(img, rule)

		// Seed formulation: per-call reseeding makes the MC stream identical.
		st := b.MCStats(img)
		_, c, h, w := st.Mean.Dims4()
		flags := imaging.NewMap(w, h)
		var maxScore float32
		for _, cls := range imaging.BusyRoadClasses() {
			ci := int(cls)
			if ci >= c {
				continue
			}
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					s := st.Mean.At4(0, ci, y, x) + rule.Sigmas*st.Std.At4(0, ci, y, x)
					if s > maxScore {
						maxScore = s
					}
					if s > rule.Tau {
						flags.Set(x, y, 1)
					}
				}
			}
		}
		flagged := flags.CountAbove(0.5)
		frac := float64(flagged) / float64(img.W*img.H)

		if got.Confirmed != (frac <= rule.MaxFlaggedFraction) {
			t.Fatalf("rule %+v: Confirmed = %v", rule, got.Confirmed)
		}
		if got.FlaggedFraction != frac {
			t.Fatalf("rule %+v: FlaggedFraction = %v, reference %v", rule, got.FlaggedFraction, frac)
		}
		if got.MaxScore != maxScore {
			t.Fatalf("rule %+v: MaxScore = %v, reference %v", rule, got.MaxScore, maxScore)
		}
		for i := range flags.Pix {
			if got.Flags.Pix[i] != flags.Pix[i] {
				t.Fatalf("rule %+v: flag %d = %v, reference %v", rule, i, got.Flags.Pix[i], flags.Pix[i])
			}
		}
	}
}

// TestConcurrentReplicaArenasRace hammers one shared frozen model across
// concurrent replicas, each with its own scratch arena: run under -race it
// pins that arenas are truly per-replica and the prefix-reuse and fused
// scans touch no shared mutable state. Every replica must produce the
// reference verdict bit-for-bit.
func TestConcurrentReplicaArenasRace(t *testing.T) {
	src := tinyModel()
	img := noisyImage(32, 41)
	rule := DefaultRule()
	rule.MaxFlaggedFraction = 0.5

	ref := NewBayesian(src, 42)
	ref.Samples = 4
	want := ref.VerifyRegion(img, rule)
	wantPred := src.Predict(img)

	const replicas = 4
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan string, replicas*rounds)
	for r := 0; r < replicas; r++ {
		clone, err := src.Clone()
		if err != nil {
			t.Fatal(err)
		}
		if clone.Scratch() == src.Scratch() {
			t.Fatal("clone shares the source's arena")
		}
		wg.Add(1)
		go func(m *segment.Model) {
			defer wg.Done()
			bay := NewBayesian(m, 42)
			bay.Samples = 4
			for i := 0; i < rounds; i++ {
				v := bay.VerifyRegion(img, rule)
				if v.Confirmed != want.Confirmed || v.FlaggedFraction != want.FlaggedFraction || v.MaxScore != want.MaxScore {
					errs <- "verdict diverged on a replica"
					return
				}
				pred, err := m.PredictCtx(t.Context(), img)
				if err != nil {
					errs <- err.Error()
					return
				}
				for j := range pred.Pix {
					if pred.Pix[j] != wantPred.Pix[j] {
						errs <- "prediction diverged on a replica"
						return
					}
				}
			}
		}(clone)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
