package segment

import (
	"fmt"
	"io"
	"math/rand"

	"safeland/internal/imaging"
	"safeland/internal/nn"
	"safeland/internal/urban"
)

// TrainConfig controls the random-crop SGD training loop.
type TrainConfig struct {
	Steps    int
	Batch    int
	CropSize int // square crop side; must be even for downsampling models
	LR       float64
	// ClassWeights biases the loss toward safety-critical classes; nil uses
	// SafetyClassWeights.
	ClassWeights []float32
	Seed         int64
	// Log, when non-nil, receives progress lines.
	Log io.Writer
	// LogEvery controls progress line frequency (default: Steps/10).
	LogEvery int
}

// DefaultTrainConfig returns the settings used by the experiment harness.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Steps:    800,
		Batch:    2,
		CropSize: 64,
		LR:       0.008,
		Seed:     7,
	}
}

// SafetyClassWeights up-weights the busy-road composite (and humans):
// missing a road pixel is the catastrophic failure mode of emergency
// landing, so recall on those classes is bought with extra loss weight.
func SafetyClassWeights() []float32 {
	w := make([]float32, imaging.NumClasses)
	for i := range w {
		w[i] = 1
	}
	w[imaging.Road] = 2.5
	w[imaging.StaticCar] = 2
	w[imaging.MovingCar] = 2
	w[imaging.Humans] = 2
	return w
}

// TrainStats summarizes a training run.
type TrainStats struct {
	Steps     int
	FirstLoss float64
	FinalLoss float64 // mean of the last 10% of steps
	Losses    []float64
}

// Train fits the model on random crops drawn from the scenes. Identical
// inputs and seeds produce identical parameters.
func Train(m *Model, scenes []*urban.Scene, cfg TrainConfig) TrainStats {
	if m.Frozen() {
		panic("segment: training a frozen shared-weights clone would corrupt every replica sharing its parameters; train the source model instead")
	}
	if len(scenes) == 0 {
		panic("segment: no training scenes")
	}
	if cfg.Batch <= 0 || cfg.Steps <= 0 || cfg.CropSize <= 0 {
		panic(fmt.Sprintf("segment: invalid train config %+v", cfg))
	}
	weights := cfg.ClassWeights
	if weights == nil {
		weights = SafetyClassWeights()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	opt := nn.NewAdam(cfg.LR)
	logEvery := cfg.LogEvery
	if logEvery <= 0 {
		logEvery = cfg.Steps/10 + 1
	}

	stats := TrainStats{Steps: cfg.Steps, Losses: make([]float64, 0, cfg.Steps)}
	cs := cfg.CropSize
	x := nn.NewTensor(cfg.Batch, 3, cs, cs)
	targets := make([][]int, cfg.Batch)
	for i := range targets {
		targets[i] = make([]int, cs*cs)
	}

	for step := 0; step < cfg.Steps; step++ {
		for bi := 0; bi < cfg.Batch; bi++ {
			s := scenes[rng.Intn(len(scenes))]
			if s.Image.W < cs || s.Image.H < cs {
				panic(fmt.Sprintf("segment: scene %dx%d smaller than crop %d", s.Image.W, s.Image.H, cs))
			}
			x0 := rng.Intn(s.Image.W - cs + 1)
			y0 := rng.Intn(s.Image.H - cs + 1)
			flip := rng.Intn(2) == 0
			for y := 0; y < cs; y++ {
				for xx := 0; xx < cs; xx++ {
					sx := x0 + xx
					if flip {
						sx = x0 + cs - 1 - xx
					}
					p := s.Image.At(sx, y0+y)
					x.Set4(bi, 0, y, xx, p.R-0.5)
					x.Set4(bi, 1, y, xx, p.G-0.5)
					x.Set4(bi, 2, y, xx, p.B-0.5)
					targets[bi][y*cs+xx] = int(s.Labels.At(sx, y0+y))
				}
			}
		}
		logits := m.Net.Forward(x, true)
		loss, grad := nn.CrossEntropyLoss(logits, targets, weights)
		m.Net.Backward(grad)
		opt.Step(m.Net.Params())

		stats.Losses = append(stats.Losses, loss)
		if step == 0 {
			stats.FirstLoss = loss
		}
		if cfg.Log != nil && (step%logEvery == 0 || step == cfg.Steps-1) {
			fmt.Fprintf(cfg.Log, "step %4d/%d  loss %.4f\n", step, cfg.Steps, loss)
		}
	}
	tail := len(stats.Losses) / 10
	if tail == 0 {
		tail = 1
	}
	var sum float64
	for _, l := range stats.Losses[len(stats.Losses)-tail:] {
		sum += l
	}
	stats.FinalLoss = sum / float64(tail)
	return stats
}
