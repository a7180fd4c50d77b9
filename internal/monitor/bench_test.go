package monitor

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"safeland/internal/imaging"
	"safeland/internal/segment"
)

// benchImage builds a deterministic synthetic crop at monitor-candidate
// scale. Weights are untrained: inference cost does not depend on the
// parameter values, only on the architecture and input size.
func benchImage(side int) *imaging.Image {
	rng := rand.New(rand.NewSource(7))
	img := imaging.NewImage(side, side)
	for i := range img.Pix {
		img.Pix[i] = imaging.RGB{R: rng.Float32(), G: rng.Float32(), B: rng.Float32()}
	}
	return img
}

func benchBayesian() *Bayesian {
	cfg := segment.DefaultConfig()
	return NewBayesian(segment.New(cfg), 42)
}

// BenchmarkMCStats times one full Monte-Carlo statistics pass (10 samples)
// on a 64×64 candidate crop — the dominant cost of every monitor verdict.
func BenchmarkMCStats(b *testing.B) {
	bay := benchBayesian()
	img := benchImage(64)
	bay.MCStats(img) // warm caches outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bay.MCStats(img)
	}
}

// BenchmarkVerifyRegion times the complete monitor verdict: Monte-Carlo
// statistics plus the rule scan producing flags, flagged fraction and max
// score.
func BenchmarkVerifyRegion(b *testing.B) {
	bay := benchBayesian()
	img := benchImage(64)
	rule := DefaultRule()
	bay.VerifyRegion(img, rule)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bay.VerifyRegion(img, rule)
	}
}

// BenchmarkFullFrameVerdict times the whole-frame Bayesian verdict the
// paper's Section V-B rules out as prohibitively slow: a 192×192 frame
// verified as 64×64 tiles, each tile one crop verdict. ns/op is the
// whole-frame cost alone; the E12 acceptance budget (full frame < 10 crop
// verdicts) is recorded as the crop-verdicts metric, measured against a
// single-crop MCStats pass interleaved with every iteration so
// machine-load drift hits both sides of the ratio equally — two benchmarks
// run a minute apart on a loaded box do not.
func BenchmarkFullFrameVerdict(b *testing.B) {
	bay := benchBayesian()
	frame := benchImage(192)
	crop := benchImage(64)
	rule := DefaultRule()
	ctx := context.Background()
	run := func() {
		if _, err := bay.VerifyFrameCtx(ctx, frame, 64, rule); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm caches outside the timer
	bay.MCStats(crop)
	var fullNS, cropNS int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		t0 := time.Now()
		bay.MCStats(crop)
		cropNS += time.Since(t0).Nanoseconds()
		b.StartTimer()
		t0 = time.Now()
		run()
		fullNS += time.Since(t0).Nanoseconds()
	}
	b.ReportMetric(float64(fullNS)/float64(cropNS), "crop-verdicts")
}
