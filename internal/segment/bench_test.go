package segment

import (
	"context"
	"math/rand"
	"testing"

	"safeland/internal/imaging"
)

// BenchmarkPredictClone192 times one PredictCtx of a 192 px frame on a
// frozen Clone: the segmentation an Engine worker runs for every frame,
// and nearly all of the work of a frame with no landing candidate (the
// EL-service benchmark's night workload). Weights are untrained: the cost
// depends on the architecture and the frame size, not on the values.
func BenchmarkPredictClone192(b *testing.B) {
	m, err := New(DefaultConfig()).Clone()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	img := imaging.NewImage(192, 192)
	for i := range img.Pix {
		img.Pix[i] = imaging.RGB{R: rng.Float32(), G: rng.Float32(), B: rng.Float32()}
	}
	ctx := context.Background()
	if _, err := m.PredictCtx(ctx, img); err != nil { // warm the arena outside the timer
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.PredictCtx(ctx, img); err != nil {
			b.Fatal(err)
		}
	}
}
