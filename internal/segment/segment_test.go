package segment

import (
	"context"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"safeland/internal/imaging"
	"safeland/internal/nn"
	"safeland/internal/urban"
)

// tinyConfig returns a model small enough for fast unit tests.
func tinyConfig() Config {
	return Config{
		NumClasses:     imaging.NumClasses,
		StemChannels:   6,
		BranchChannels: 4,
		Dilations:      []int{1, 2},
		DropoutP:       0.5,
		Downsample:     true,
		Seed:           3,
	}
}

func tinyScenes(t *testing.T, n int) []*urban.Scene {
	t.Helper()
	cfg := urban.DefaultConfig()
	cfg.W, cfg.H = 96, 96
	return urban.GenerateSet(cfg, urban.DefaultConditions(), n, 400)
}

func TestModelShapes(t *testing.T) {
	m := New(tinyConfig())
	img := imaging.NewImage(64, 48)
	logits := m.Logits(img)
	n, c, h, w := logits.Dims4()
	if n != 1 || c != imaging.NumClasses || h != 48 || w != 64 {
		t.Fatalf("logits shape %v", logits.Shape)
	}
	pred := m.Predict(img)
	if pred.W != 64 || pred.H != 48 {
		t.Fatalf("prediction %dx%d", pred.W, pred.H)
	}
	probs := m.PredictProbs(img)
	var sum float64
	for ci := 0; ci < imaging.NumClasses; ci++ {
		sum += float64(probs.At4(0, ci, 10, 10))
	}
	if math.Abs(sum-1) > 1e-4 {
		t.Errorf("probs sum %v", sum)
	}
}

func TestModelOddSizePanicsWhenDownsampling(t *testing.T) {
	m := New(tinyConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on odd input to downsampling model")
		}
	}()
	m.Logits(imaging.NewImage(63, 48))
}

func TestFullResolutionModelAcceptsOddSizes(t *testing.T) {
	cfg := tinyConfig()
	cfg.Downsample = false
	m := New(cfg)
	pred := m.Predict(imaging.NewImage(33, 17))
	if pred.W != 33 || pred.H != 17 {
		t.Fatalf("prediction %dx%d", pred.W, pred.H)
	}
}

func TestDeterministicInference(t *testing.T) {
	m := New(tinyConfig())
	scene := tinyScenes(t, 1)[0]
	a := m.PredictProbs(scene.Image)
	b := m.PredictProbs(scene.Image)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("standard inference is not deterministic (dropout leaking?)")
		}
	}
}

func TestParamCountScalesWithConfig(t *testing.T) {
	small := New(tinyConfig())
	big := New(DefaultConfig())
	if small.ParamCount() <= 0 || big.ParamCount() <= small.ParamCount() {
		t.Fatalf("param counts small=%d big=%d", small.ParamCount(), big.ParamCount())
	}
}

func TestTrainingReducesLossAndLearnsRoads(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	scenes := tinyScenes(t, 4)
	m := New(tinyConfig())
	cfg := TrainConfig{Steps: 120, Batch: 2, CropSize: 64, LR: 0.01, Seed: 5}
	stats := Train(m, scenes, cfg)
	if stats.FinalLoss >= stats.FirstLoss {
		t.Fatalf("loss did not decrease: first %.4f final %.4f", stats.FirstLoss, stats.FinalLoss)
	}
	conf := Evaluate(m, scenes[:2])
	if acc := conf.PixelAccuracy(); acc < 0.4 {
		t.Errorf("train accuracy %.3f unreasonably low after training", acc)
	}
}

func TestTrainDeterministic(t *testing.T) {
	scenes := tinyScenes(t, 2)
	cfg := TrainConfig{Steps: 6, Batch: 1, CropSize: 48, LR: 0.01, Seed: 9}
	a := New(tinyConfig())
	b := New(tinyConfig())
	Train(a, scenes, cfg)
	Train(b, scenes, cfg)
	pa, pb := a.Net.Params(), b.Net.Params()
	for i := range pa {
		for j := range pa[i].Value.Data {
			if pa[i].Value.Data[j] != pb[i].Value.Data[j] {
				t.Fatal("training is not deterministic for identical seeds")
			}
		}
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	scenes := tinyScenes(t, 1)
	m := New(tinyConfig())
	Train(m, scenes, TrainConfig{Steps: 4, Batch: 1, CropSize: 48, LR: 0.01, Seed: 2})
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := m.PredictProbs(scenes[0].Image)
	b := loaded.PredictProbs(scenes[0].Image)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("loaded model predicts differently")
		}
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent.ckpt"), tinyConfig()); err == nil {
		t.Fatal("expected error for missing checkpoint")
	}
}

func TestSafetyClassWeights(t *testing.T) {
	w := SafetyClassWeights()
	if len(w) != imaging.NumClasses {
		t.Fatalf("weights length %d", len(w))
	}
	if w[imaging.Road] <= w[imaging.Building] {
		t.Error("road weight should exceed building weight")
	}
	for _, c := range imaging.BusyRoadClasses() {
		if w[c] <= 1 {
			t.Errorf("busy-road class %v weight %v not up-weighted", c, w[c])
		}
	}
}

func TestConfusionMetrics(t *testing.T) {
	truth := imaging.NewLabelMap(4, 2)
	pred := imaging.NewLabelMap(4, 2)
	// truth: 4 road, 4 clutter; pred: 2 road correct, 2 road→clutter,
	// 1 clutter→road, 3 clutter correct.
	truth.FillRect(0, 0, 4, 1, imaging.Road)
	pred.Set(0, 0, imaging.Road)
	pred.Set(1, 0, imaging.Road)
	pred.Set(0, 1, imaging.Road)
	var c Confusion
	c.Add(truth, pred)

	if got := c.PixelAccuracy(); math.Abs(got-5.0/8) > 1e-9 {
		t.Errorf("accuracy = %v, want 0.625", got)
	}
	iou, ok := c.IoU(imaging.Road)
	if !ok || math.Abs(iou-2.0/5) > 1e-9 {
		t.Errorf("road IoU = %v ok=%v, want 0.4", iou, ok)
	}
	if got := c.Recall(imaging.Road); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("road recall = %v, want 0.5", got)
	}
	if got := c.Precision(imaging.Road); math.Abs(got-2.0/3) > 1e-9 {
		t.Errorf("road precision = %v, want 2/3", got)
	}
	if got := c.BusyRoadRecall(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("busy recall = %v, want 0.5", got)
	}
	if _, ok := c.IoU(imaging.Tree); ok {
		t.Error("IoU of absent class should report not-ok")
	}
	if c.String() == "" {
		t.Error("empty string summary")
	}
}

func TestConfusionMismatchPanics(t *testing.T) {
	var c Confusion
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on size mismatch")
		}
	}()
	c.Add(imaging.NewLabelMap(2, 2), imaging.NewLabelMap(3, 3))
}

func TestMCDropoutVariesPredictions(t *testing.T) {
	m := New(tinyConfig())
	scene := tinyScenes(t, 1)[0]
	nn.SetDropoutMode(m.Net, nn.AlwaysOn)
	defer nn.SetDropoutMode(m.Net, nn.Auto)
	a := m.PredictProbs(scene.Image)
	b := m.PredictProbs(scene.Image)
	diff := 0
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("MC dropout produced identical samples")
	}
}

func TestCloneSharesFrozenWeights(t *testing.T) {
	scenes := tinyScenes(t, 1)
	m := New(tinyConfig())
	Train(m, scenes, TrainConfig{Steps: 4, Batch: 1, CropSize: 48, LR: 0.01, Seed: 2})
	c, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if !c.Frozen() || m.Frozen() {
		t.Fatalf("frozen flags: clone %v source %v, want true/false", c.Frozen(), m.Frozen())
	}
	if !nn.SharesParams(m.Net, c.Net) {
		t.Fatal("clone does not alias the source parameter tensors")
	}
	mp, cp := m.Net.Params(), c.Net.Params()
	for i := range mp {
		if &mp[i].Value.Data[0] != &cp[i].Value.Data[0] {
			t.Fatalf("param %d (%s) copied instead of shared", i, mp[i].Name)
		}
		if cp[i].Grad != nil {
			t.Fatalf("param %d (%s) keeps a gradient accumulator on a frozen clone", i, mp[i].Name)
		}
		if mp[i].Grad == nil {
			t.Fatalf("param %d (%s) lost the source model's gradient", i, mp[i].Name)
		}
	}
	a := m.PredictProbs(scenes[0].Image)
	b := c.PredictProbs(scenes[0].Image)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("shared-weights clone predicts differently")
		}
	}

	// The frozen invariant is enforced: training a clone must panic.
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when training a frozen clone")
		}
	}()
	Train(c, scenes, TrainConfig{Steps: 1, Batch: 1, CropSize: 48, LR: 0.01, Seed: 2})
}

func TestCloneDetachedIsIndependent(t *testing.T) {
	scenes := tinyScenes(t, 1)
	m := New(tinyConfig())
	Train(m, scenes, TrainConfig{Steps: 4, Batch: 1, CropSize: 48, LR: 0.01, Seed: 2})
	c, err := m.CloneDetached()
	if err != nil {
		t.Fatal(err)
	}
	if c.Frozen() {
		t.Fatal("detached clone reports frozen")
	}
	if nn.SharesParams(m.Net, c.Net) {
		t.Fatal("detached clone aliases the source weights")
	}
	a := m.PredictProbs(scenes[0].Image)
	b := c.PredictProbs(scenes[0].Image)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("detached clone predicts differently")
		}
	}
	// Training the detached copy must leave the source untouched.
	before := m.Net.Params()[0].Value.Clone()
	Train(c, scenes, TrainConfig{Steps: 2, Batch: 1, CropSize: 48, LR: 0.01, Seed: 3})
	after := m.Net.Params()[0].Value
	for i := range before.Data {
		if before.Data[i] != after.Data[i] {
			t.Fatal("training a detached clone mutated the source model")
		}
	}
}

func TestPredictCtxMatchesPredictAndCancels(t *testing.T) {
	m := New(tinyConfig())
	scene := tinyScenes(t, 1)[0]
	want := m.Predict(scene.Image)
	got, err := m.PredictCtx(context.Background(), scene.Image)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Pix, got.Pix) {
		t.Error("PredictCtx diverges from Predict")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.PredictCtx(ctx, scene.Image); err != context.Canceled {
		t.Errorf("cancelled PredictCtx err = %v", err)
	}
}

// TestPredictMatchesFullResolutionArgmax pins PredictCtx — the argmax taken
// on the head's output and replicated over each 2×2 block — to the argmax
// of the full-resolution logits, on a trained model and on its frozen
// clone, for a square frame and a non-square crop.
func TestPredictMatchesFullResolutionArgmax(t *testing.T) {
	scenes := tinyScenes(t, 1)
	m := New(tinyConfig())
	Train(m, scenes, TrainConfig{Steps: 4, Batch: 1, CropSize: 48, LR: 0.01, Seed: 2})
	c, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []*Model{m, c} {
		for _, img := range []*imaging.Image{scenes[0].Image, scenes[0].Image.Crop(2, 6, 26, 18)} {
			got, err := model.PredictCtx(context.Background(), img)
			if err != nil {
				t.Fatal(err)
			}
			want := nn.ArgmaxChannels(model.Logits(img))[0]
			if got.W != img.W || got.H != img.H || len(got.Pix) != len(want) {
				t.Fatalf("label map %dx%d for a %dx%d frame", got.W, got.H, img.W, img.H)
			}
			for i, c := range want {
				if got.Pix[i] != imaging.Class(c) {
					t.Fatalf("frozen %v, %dx%d: label %d = %d, full-resolution argmax %d",
						model.Frozen(), img.W, img.H, i, got.Pix[i], c)
				}
			}
		}
	}
}

// TestCloneRunsFrozenNetOverUnfusedNet pins the split between a clone's
// two networks: inference runs the fused network, while Net keeps the
// unfused layers of the source — the training path's structure, which the
// parity tests and per-layer replays use — and a trainable model runs Net.
func TestCloneRunsFrozenNetOverUnfusedNet(t *testing.T) {
	m := New(tinyConfig())
	c, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if m.Inference() != m.Net {
		t.Fatal("a trainable model does not run Net")
	}
	if c.Inference() == c.Net {
		t.Fatal("a frozen clone runs its unfused Net")
	}
	src, cl := m.Net.(*nn.Sequential), c.Net.(*nn.Sequential)
	if len(src.Layers) != len(cl.Layers) {
		t.Fatalf("clone Net has %d layers, source %d", len(cl.Layers), len(src.Layers))
	}
	for i := range src.Layers {
		if reflect.TypeOf(src.Layers[i]) != reflect.TypeOf(cl.Layers[i]) {
			t.Fatalf("clone Net layer %d is %T, source %T", i, cl.Layers[i], src.Layers[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a training pass through a clone's inference network did not panic")
		}
	}()
	c.Inference().Forward(ToTensor(imaging.NewImage(8, 8)), true)
}
