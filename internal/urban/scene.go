package urban

import (
	"math/rand"

	"safeland/internal/imaging"
)

// Scene is one generated urban capture: the rendered image, its dense
// ground-truth labels, the height field, the vector layout behind them, and
// the conditions it was captured under.
type Scene struct {
	Image  *imaging.Image
	Labels *imaging.LabelMap
	Height *imaging.Map // meters above ground
	Layout *Layout
	Cond   Conditions
	// MPP is the ground sampling distance in meters per pixel.
	MPP  float64
	Seed int64
}

// GeneratorVersion identifies the scene-generation algorithm. Bump it
// whenever a change to Generate (or anything it calls — layout synthesis,
// rendering, noise) alters the output for identical inputs: the scenario
// corpus folds it into its content addresses, so stale on-disk caches are
// invalidated instead of silently serving scenes from the old algorithm.
const GeneratorVersion = 1

// Generate builds one scene from the config, conditions and seed. The same
// inputs always produce the same scene (for a fixed GeneratorVersion).
func Generate(cfg Config, cond Conditions, seed int64) *Scene {
	rng := rand.New(rand.NewSource(seed))
	lay, p := generateLayout(cfg, cond, rng)
	img := renderScene(p.labels, p.base, p.height, p.mpp, cond, seed)
	return &Scene{
		Image:  img,
		Labels: p.labels,
		Height: p.height,
		Layout: lay,
		Cond:   cond,
		MPP:    p.mpp,
		Seed:   seed,
	}
}

// GenerateSet builds n scenes with consecutive seeds starting at baseSeed.
func GenerateSet(cfg Config, cond Conditions, n int, baseSeed int64) []*Scene {
	scenes := make([]*Scene, n)
	for i := range scenes {
		scenes[i] = Generate(cfg, cond, baseSeed+int64(i))
	}
	return scenes
}

// Dataset is a train/test split of in-distribution scenes plus an
// out-of-distribution set, mirroring the paper's evaluation protocol:
// the model trains on UAVid-like data (train), assurance requirement
// Medium-1 is tested on held-out data (test), and High-2 is probed with
// data from outside the training distribution (ood).
type Dataset struct {
	Train []*Scene
	Test  []*Scene
	OOD   []*Scene
}

// AsciiRender returns a compact ASCII view of a label map (one character per
// cell, majority class per cell), for terminal-friendly qualitative output —
// the stand-in for the paper's Figure 3/4 visuals.
func AsciiRender(lm *imaging.LabelMap, cols int) string {
	if cols <= 0 || lm.W == 0 || lm.H == 0 {
		return ""
	}
	if cols > lm.W {
		cols = lm.W
	}
	cell := lm.W / cols
	rows := lm.H / cell
	if rows == 0 {
		rows = 1
	}
	glyphs := map[imaging.Class]byte{
		imaging.Clutter:       '.',
		imaging.Building:      '#',
		imaging.Road:          '=',
		imaging.StaticCar:     'c',
		imaging.Tree:          'T',
		imaging.LowVegetation: '"',
		imaging.Humans:        '!',
		imaging.MovingCar:     'C',
	}
	buf := make([]byte, 0, rows*(cols+1))
	for r := 0; r < rows; r++ {
		for cIdx := 0; cIdx < cols; cIdx++ {
			var counts [imaging.NumClasses]int
			for y := r * cell; y < (r+1)*cell && y < lm.H; y++ {
				for x := cIdx * cell; x < (cIdx+1)*cell && x < lm.W; x++ {
					counts[lm.At(x, y)]++
				}
			}
			bestClass, bestCount := imaging.Clutter, -1
			for cl := imaging.Class(0); cl < imaging.NumClasses; cl++ {
				// Rare thin classes (cars, humans) win ties so they stay
				// visible at coarse scale.
				w := counts[cl]
				if cl == imaging.MovingCar || cl == imaging.StaticCar || cl == imaging.Humans {
					w *= 4
				}
				if w > bestCount {
					bestCount = w
					bestClass = cl
				}
			}
			buf = append(buf, glyphs[bestClass])
		}
		buf = append(buf, '\n')
	}
	return string(buf)
}
