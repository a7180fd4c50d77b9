// Package segment implements the paper's core landing-zone perception
// function: an MSDnet-style multi-scale dilated convolutional network for
// 8-class semantic segmentation of urban aerial imagery (Lyu et al. 2020),
// together with its training harness and evaluation metrics.
package segment

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"

	"safeland/internal/imaging"
	"safeland/internal/nn"
)

// Config describes an MSDnet instance. The defaults are a CPU-scale
// reduction of the paper's network: a strided stem followed by parallel
// dilated branches whose outputs are concatenated, a Monte-Carlo-capable
// dropout stage, and a 1×1 classification head.
type Config struct {
	NumClasses int
	// StemChannels is the width of the stem convolution.
	StemChannels int
	// BranchChannels is the width of each dilated branch.
	BranchChannels int
	// Dilations lists the dilation rate of each parallel branch — the
	// "multi-scale dilation" core of MSDnet.
	Dilations []int
	// DropoutP is the dropout probability. The paper uses 0.5 on all
	// relevant MSDnet layers for the Bayesian variant.
	DropoutP float64
	// Downsample runs the trunk at half resolution (stride-2 stem, 2×
	// upsampled logits), trading boundary sharpness for ~4× speed.
	Downsample bool
	// Seed drives weight initialization and dropout sampling.
	Seed int64
}

// DefaultConfig returns the configuration used across the experiments.
func DefaultConfig() Config {
	return Config{
		NumClasses:     imaging.NumClasses,
		StemChannels:   20,
		BranchChannels: 14,
		Dilations:      []int{1, 2, 4},
		DropoutP:       0.5,
		Downsample:     true,
		Seed:           1,
	}
}

// Model wraps the network with image conversion, prediction and
// checkpointing. Build one with New.
type Model struct {
	Net nn.Layer
	Cfg Config

	// frozen marks a shared-weights clone: its parameters alias another
	// model's and must never be written. Train rejects frozen models.
	frozen bool

	// infer is a frozen clone's inference network, nn.NewFrozenNet over
	// Net, which inference passes run; nil on a trainable model, whose
	// passes run Net. See Inference.
	infer nn.Layer

	// scratch is this replica's tensor arena: inference outputs are drawn
	// from it and recycled, so steady-state prediction allocates nothing.
	// It is single-goroutine like the model itself; Clone gives every
	// replica its own arena.
	scratch *nn.Scratch
}

// New builds an MSDnet with freshly initialized weights.
func New(cfg Config) *Model {
	if cfg.NumClasses <= 1 {
		panic(fmt.Sprintf("segment: invalid class count %d", cfg.NumClasses))
	}
	if len(cfg.Dilations) == 0 {
		panic("segment: at least one dilation branch required")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	stemStride := 1
	if cfg.Downsample {
		stemStride = 2
	}
	layers := []nn.Layer{
		nn.NewConv2D("stem", 3, cfg.StemChannels, 3, stemStride, 1, 1, rng),
		nn.NewBatchNorm2D("stem.bn", cfg.StemChannels),
		&nn.ReLU{},
		nn.NewDropout(cfg.DropoutP, cfg.Seed+101),
	}

	branches := make([]nn.Layer, len(cfg.Dilations))
	for i, d := range cfg.Dilations {
		name := fmt.Sprintf("branch%d", d)
		branches[i] = nn.NewSequential(
			nn.NewConv2D(name+".conv", cfg.StemChannels, cfg.BranchChannels, 3, 1, d, d, rng),
			nn.NewBatchNorm2D(name+".bn", cfg.BranchChannels),
			&nn.ReLU{},
		)
	}
	layers = append(layers,
		nn.NewParallelConcat(branches...),
		nn.NewDropout(cfg.DropoutP, cfg.Seed+202),
		nn.NewConv2D("head", cfg.BranchChannels*len(cfg.Dilations), cfg.NumClasses, 1, 1, 0, 1, rng),
	)
	if cfg.Downsample {
		layers = append(layers, &nn.Upsample2x{})
	}
	m := &Model{Net: nn.NewSequential(layers...), Cfg: cfg, scratch: nn.NewScratch()}
	nn.AttachScratch(m.Net, m.scratch)
	return m
}

// Scratch returns the model's per-replica tensor arena. Callers that hold
// the model may draw buffers from it and must return only buffers they
// exclusively own; tensors escaping to API callers are simply never Put
// back.
func (m *Model) Scratch() *nn.Scratch { return m.scratch }

// ParamCount returns the total number of trainable scalars.
func (m *Model) ParamCount() int {
	n := 0
	for _, p := range m.Net.Params() {
		n += p.Value.Numel()
	}
	return n
}

// ToTensor converts an RGB image into a centered [1,3,H,W] input tensor.
func ToTensor(img *imaging.Image) *nn.Tensor {
	return ToTensorScratch(img, nil)
}

// ToTensorScratch is ToTensor drawing the tensor from an arena (nil falls
// back to a fresh allocation). Every element is written, so arena reuse is
// value-identical.
func ToTensorScratch(img *imaging.Image, sc *nn.Scratch) *nn.Tensor {
	t := sc.Get(1, 3, img.H, img.W)
	hw := img.H * img.W
	for i, p := range img.Pix {
		t.Data[i] = p.R - 0.5
		t.Data[hw+i] = p.G - 0.5
		t.Data[2*hw+i] = p.B - 0.5
	}
	return t
}

// CheckSize returns an error for an image the model cannot segment: a
// downsampling model needs even spatial dims, since the stride-2 stem plus
// 2× upsample would silently change the output size. Servers call it to
// reject such a frame up front; LogitsCtx and PredictCtx return its error,
// Logits and Predict panic on it.
func (m *Model) CheckSize(img *imaging.Image) error {
	if m.Cfg.Downsample && (img.W%2 != 0 || img.H%2 != 0) {
		return fmt.Errorf("segment: downsampling model requires even dimensions, got %dx%d", img.W, img.H)
	}
	return nil
}

// Inference returns the network inference passes run: on a frozen clone
// the fused network Clone built (nn.NewFrozenNet), which computes Net's
// inference outputs bit for bit; Net itself on a trainable model. Both
// share Net's dropout layers, so SetDropoutMode and ReseedDropout reach the
// same layers through either.
func (m *Model) Inference() nn.Layer {
	if m.infer != nil {
		return m.infer
	}
	return m.Net
}

// Logits runs a deterministic forward pass (dropout inactive) and returns
// raw per-class scores [1,C,H,W]. The result may come from the model's
// arena; the caller owns it (it is never handed out again).
func (m *Model) Logits(img *imaging.Image) *nn.Tensor {
	out, err := m.LogitsCtx(context.Background(), img)
	if err != nil {
		panic(err.Error())
	}
	return out
}

// PredictProbs returns per-pixel class probabilities [1,C,H,W] from a
// deterministic forward pass — the paper's "standard version" of the model,
// whose softmax scores are point estimates with no confidence semantics.
func (m *Model) PredictProbs(img *imaging.Image) *nn.Tensor {
	return nn.SoftmaxChannelsInPlace(m.Logits(img))
}

// Predict returns the per-pixel argmax segmentation; see PredictCtx.
func (m *Model) Predict(img *imaging.Image) *imaging.LabelMap {
	lm, err := m.PredictCtx(context.Background(), img)
	if err != nil {
		panic(err.Error())
	}
	return lm
}

// LogitsCtx is Logits with cooperative cancellation: the context is honored
// between network layers, so a cancelled caller waits for at most one
// layer's work instead of the full forward pass. An image CheckSize rejects
// returns its error.
func (m *Model) LogitsCtx(ctx context.Context, img *imaging.Image) (*nn.Tensor, error) {
	if err := m.CheckSize(img); err != nil {
		return nil, err
	}
	return m.forwardCtx(ctx, m.Inference(), img)
}

// forwardCtx runs net over img's tensor, honoring ctx between layers.
func (m *Model) forwardCtx(ctx context.Context, net nn.Layer, img *imaging.Image) (*nn.Tensor, error) {
	in := ToTensorScratch(img, m.scratch)
	out, err := nn.ForwardCtx(ctx, net, in, false)
	if err != nil {
		// The chain input is never recycled mid-chain, so it is safe to
		// reclaim on cancellation — leaving it out would grow the arena by
		// one input-sized buffer per cancelled pass.
		m.scratch.Put(in)
		return nil, err
	}
	if out != in {
		m.scratch.Put(in)
	}
	return out, nil
}

// PredictCtx returns the per-pixel argmax segmentation, honoring ctx
// between network layers like LogitsCtx. On a downsampling model it takes
// the argmax of the head's output, before the trailing Upsample2x, and
// replicates each label over the 2×2 block the upsample would have copied
// its logits to. That is exact: the argmax reads one pixel's logits across
// the channels, and the upsample copies those columns whole, so every
// upsampled pixel has its source pixel's argmax — at a quarter of the
// work, and with no full-resolution logits.
func (m *Model) PredictCtx(ctx context.Context, img *imaging.Image) (*imaging.LabelMap, error) {
	if err := m.CheckSize(img); err != nil {
		return nil, err
	}
	body, up, _ := nn.SplitTrailingUpsample(m.Inference())
	scores, err := m.forwardCtx(ctx, body, img)
	if err != nil {
		return nil, err
	}
	lm := labelMap(scores, up != nil, img.W, img.H)
	m.scratch.Put(scores) // labelMap consumed it
	return lm, nil
}

// labelMap builds the w×h label map of scores' argmax, replicating each
// label over a 2×2 block when upsampled. It goes one channel row at a
// time, straight into the label map, and keeps each pixel's best score so
// far in the first channel's row, which it overwrites. As in
// nn.ArgmaxChannels, a class wins only with a score greater than the best
// so far, so ties keep the lower class and a NaN never wins.
func labelMap(scores *nn.Tensor, upsampled bool, w, h int) *imaging.LabelMap {
	_, c, sh, sw := scores.Dims4()
	n := sh * sw
	out := imaging.NewLabelMap(w, h)
	labels, best := out.Pix[:n], scores.Data[:n]
	for ci := 1; ci < c; ci++ {
		for i, v := range scores.Data[ci*n : (ci+1)*n] {
			if v > best[i] {
				best[i] = v
				labels[i] = imaging.Class(ci)
			}
		}
	}
	if upsampled {
		imaging.Expand2x(out.Pix, labels, sw, sh)
	}
	return out
}

// Clone returns a frozen shared-weights replica: a fresh network of the
// same architecture whose parameter tensors and batch-norm statistics
// alias the original's, so an N-worker replica pool pays for one copy of
// the weights instead of N. Forward passes cache per-layer state, so a
// model instance must not be shared across goroutines; Clone is how
// concurrent servers get one replica per worker — the mutable caches
// (ReLU masks, dropout RNGs, batch-norm scratch) are private per clone,
// only the read-only weights are shared. Dropout layers are rebuilt from
// Cfg.Seed, so a reseeded Monte-Carlo sample sequence is identical on
// every clone.
//
// The clone's inference passes run a fused network (see Inference and
// nn.NewFrozenNet) that packs the weights and the batch-norm constants
// once, here; its Net keeps the unfused layers, the reference the fused
// network is tested against.
//
// Frozen-weights invariant: a clone is inference-only. Train panics on it,
// and the source model must not be retrained while clones are live — an
// optimizer step on the shared tensors would race every replica, and the
// clone, having read its pack once, would never see the new weights. Use
// CloneDetached when an independently-trainable copy is needed.
func (m *Model) Clone() (*Model, error) {
	c := New(m.Cfg)
	if err := nn.ShareParams(c.Net, m.Net); err != nil {
		return nil, fmt.Errorf("cloning model: %w", err)
	}
	// A frozen clone can never train (Train panics on it), so the gradient
	// accumulators New allocated are dead weight — dropping them is what
	// actually brings an N-worker pool down to one param-sized footprint.
	for _, p := range c.Net.Params() {
		p.Grad = nil
	}
	c.frozen = true
	c.infer = nn.NewFrozenNet(c.Net)
	return c, nil
}

// CloneDetached returns a deep copy with its own parameter memory: the
// parameters and batch-norm statistics are serialized out of the original
// and poured into a fresh network. Unlike Clone, the result is trainable.
func (m *Model) CloneDetached() (*Model, error) {
	var buf bytes.Buffer
	if err := nn.SaveParams(&buf, m.Net); err != nil {
		return nil, fmt.Errorf("cloning model: %w", err)
	}
	c := New(m.Cfg)
	if err := nn.LoadParams(&buf, c.Net); err != nil {
		return nil, fmt.Errorf("cloning model: %w", err)
	}
	return c, nil
}

// Frozen reports whether this model is a shared-weights clone whose
// parameters must not be written.
func (m *Model) Frozen() bool { return m.frozen }

// Save writes the model parameters to path.
func (m *Model) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating checkpoint: %w", err)
	}
	defer f.Close()
	if err := nn.SaveParams(f, m.Net); err != nil {
		return fmt.Errorf("saving %s: %w", path, err)
	}
	return nil
}

// Load reads model parameters from path into an architecture built from cfg.
func Load(path string, cfg Config) (*Model, error) {
	m := New(cfg)
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("opening checkpoint: %w", err)
	}
	defer f.Close()
	if err := nn.LoadParams(f, m.Net); err != nil {
		return nil, fmt.Errorf("loading %s: %w", path, err)
	}
	return m, nil
}
