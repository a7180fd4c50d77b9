package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// numericGradCheck compares the analytic input gradient of a layer against
// central finite differences of the scalar objective sum(forward(x) ⊙ R).
func numericGradCheck(t *testing.T, layer Layer, x *Tensor, train bool, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	out := layer.Forward(x, train)
	r := out.ZerosLike()
	for i := range r.Data {
		r.Data[i] = rng.Float32()*2 - 1
	}
	dx := layer.Backward(r)

	const eps = 1e-2
	for _, idx := range sampleIndices(len(x.Data), 24, rng) {
		orig := x.Data[idx]
		x.Data[idx] = orig + eps
		up := objective(layer.Forward(x, train), r)
		x.Data[idx] = orig - eps
		down := objective(layer.Forward(x, train), r)
		x.Data[idx] = orig
		want := (up - down) / (2 * eps)
		got := float64(dx.Data[idx])
		if math.Abs(got-want) > tol*(1+math.Abs(want)) {
			t.Errorf("input grad[%d] = %v, numeric %v", idx, got, want)
		}
	}
	// Re-establish the cache for parameter checks, zeroing accumulated
	// gradients from the first backward pass.
	for _, p := range layer.Params() {
		clear(p.Grad.Data)
	}
	layer.Forward(x, train)
	layer.Backward(r)
	for _, p := range layer.Params() {
		grad := append([]float32(nil), p.Grad.Data...)
		for _, idx := range sampleIndices(len(p.Value.Data), 12, rng) {
			orig := p.Value.Data[idx]
			p.Value.Data[idx] = orig + eps
			up := objective(layer.Forward(x, train), r)
			p.Value.Data[idx] = orig - eps
			down := objective(layer.Forward(x, train), r)
			p.Value.Data[idx] = orig
			want := (up - down) / (2 * eps)
			got := float64(grad[idx])
			if math.Abs(got-want) > tol*(1+math.Abs(want)) {
				t.Errorf("param %s grad[%d] = %v, numeric %v", p.Name, idx, got, want)
			}
		}
		clear(p.Grad.Data)
	}
}

func objective(out, r *Tensor) float64 {
	var s float64
	for i := range out.Data {
		s += float64(out.Data[i] * r.Data[i])
	}
	return s
}

func sampleIndices(n, k int, rng *rand.Rand) []int {
	if k > n {
		k = n
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = rng.Intn(n)
	}
	return idx
}

func randomInput(shape []int, seed int64) *Tensor {
	rng := rand.New(rand.NewSource(seed))
	x := NewTensor(shape...)
	for i := range x.Data {
		x.Data[i] = rng.Float32()*2 - 1
	}
	return x
}

func TestConv2DGradients(t *testing.T) {
	tests := []struct {
		name                           string
		inC, outC, k, stride, pad, dil int
		h, w                           int
	}{
		{"3x3_same", 2, 3, 3, 1, 1, 1, 6, 7},
		{"dilated2", 2, 2, 3, 1, 2, 2, 8, 8},
		{"dilated4", 1, 2, 3, 1, 4, 4, 11, 11},
		{"stride2", 2, 3, 3, 2, 1, 1, 8, 8},
		{"1x1", 4, 2, 1, 1, 0, 1, 5, 5},
		{"stride2_dilated2", 1, 2, 3, 2, 2, 2, 9, 9},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			conv := NewConv2D("c", tt.inC, tt.outC, tt.k, tt.stride, tt.pad, tt.dil, rng)
			x := randomInput([]int{2, tt.inC, tt.h, tt.w}, 2)
			numericGradCheck(t, conv, x, false, 2e-2)
		})
	}
}

func TestConv2DOutSize(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tests := []struct {
		k, stride, pad, dil int
		h, w, wantH, wantW  int
	}{
		{3, 1, 1, 1, 16, 16, 16, 16},
		{3, 1, 2, 2, 16, 16, 16, 16},
		{3, 1, 4, 4, 16, 16, 16, 16},
		{3, 2, 1, 1, 16, 16, 8, 8},
		{1, 1, 0, 1, 9, 7, 9, 7},
	}
	for _, tt := range tests {
		c := NewConv2D("c", 1, 1, tt.k, tt.stride, tt.pad, tt.dil, rng)
		oh, ow := c.OutSize(tt.h, tt.w)
		if oh != tt.wantH || ow != tt.wantW {
			t.Errorf("k=%d s=%d p=%d d=%d: out %dx%d, want %dx%d",
				tt.k, tt.stride, tt.pad, tt.dil, oh, ow, tt.wantH, tt.wantW)
		}
	}
}

func TestConv2DKnownValues(t *testing.T) {
	// Identity 1x1 kernel copies the input; a 3x3 box kernel sums a patch.
	rng := rand.New(rand.NewSource(1))
	c := NewConv2D("c", 1, 1, 1, 1, 0, 1, rng)
	c.W.Value.Data[0] = 1
	c.B.Value.Data[0] = 0
	x := randomInput([]int{1, 1, 4, 4}, 3)
	out := c.Forward(x, false)
	for i := range x.Data {
		if out.Data[i] != x.Data[i] {
			t.Fatalf("identity conv mismatch at %d", i)
		}
	}
	box := NewConv2D("b", 1, 1, 3, 1, 0, 1, rng)
	box.W.Value.Fill(1)
	box.B.Value.Data[0] = 0
	ones := NewTensor(1, 1, 5, 5)
	ones.Fill(1)
	out = box.Forward(ones, false)
	if out.Shape[2] != 3 || out.Shape[3] != 3 {
		t.Fatalf("box conv output shape %v", out.Shape)
	}
	for _, v := range out.Data {
		if v != 9 {
			t.Fatalf("box conv value %v, want 9", v)
		}
	}
}

func TestBatchNormGradients(t *testing.T) {
	bn := NewBatchNorm2D("bn", 3)
	x := randomInput([]int{2, 3, 5, 4}, 4)
	numericGradCheck(t, bn, x, true, 5e-2)
}

func TestBatchNormNormalizes(t *testing.T) {
	bn := NewBatchNorm2D("bn", 2)
	x := randomInput([]int{4, 2, 6, 6}, 5)
	for i := range x.Data {
		x.Data[i] = x.Data[i]*3 + 7 // strong offset and scale
	}
	out := bn.Forward(x, true)
	n, c, h, w := out.Dims4()
	for ci := 0; ci < c; ci++ {
		var sum, sq float64
		for bi := 0; bi < n; bi++ {
			for y := 0; y < h; y++ {
				for xx := 0; xx < w; xx++ {
					v := float64(out.At4(bi, ci, y, xx))
					sum += v
					sq += v * v
				}
			}
		}
		cnt := float64(n * h * w)
		mean := sum / cnt
		variance := sq/cnt - mean*mean
		if math.Abs(mean) > 1e-3 {
			t.Errorf("channel %d mean = %v, want ≈0", ci, mean)
		}
		if math.Abs(variance-1) > 1e-2 {
			t.Errorf("channel %d var = %v, want ≈1", ci, variance)
		}
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	bn := NewBatchNorm2D("bn", 1)
	x := NewTensor(1, 1, 2, 2)
	x.Fill(10)
	// Without any training step, running stats are mean 0, var 1.
	out := bn.Forward(x, false)
	for _, v := range out.Data {
		if math.Abs(float64(v-10)) > 1e-3 {
			t.Fatalf("eval output %v, want ≈10 with identity running stats", v)
		}
	}
}

func TestReLU(t *testing.T) {
	r := &ReLU{}
	x := NewTensor(1, 1, 1, 4)
	copy(x.Data, []float32{-1, 0, 2, -3})
	out := r.Forward(x, true)
	want := []float32{0, 0, 2, 0}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("relu out = %v", out.Data)
		}
	}
	dout := NewTensor(1, 1, 1, 4)
	dout.Fill(1)
	dx := r.Backward(dout)
	wantDx := []float32{0, 0, 1, 0}
	for i := range wantDx {
		if dx.Data[i] != wantDx[i] {
			t.Fatalf("relu dx = %v", dx.Data)
		}
	}
}

func TestDropoutModes(t *testing.T) {
	x := NewTensor(1, 1, 8, 8)
	x.Fill(1)

	d := NewDropout(0.5, 7)
	// Auto + eval: identity.
	out := d.Forward(x, false)
	for _, v := range out.Data {
		if v != 1 {
			t.Fatal("dropout active in eval mode under Auto")
		}
	}
	// Auto + train: some zeros, survivors scaled by 2.
	out = d.Forward(x, true)
	zeros := 0
	for _, v := range out.Data {
		switch v {
		case 0:
			zeros++
		case 2:
		default:
			t.Fatalf("unexpected dropout output %v", v)
		}
	}
	if zeros == 0 || zeros == len(out.Data) {
		t.Fatalf("dropout zeroed %d/%d", zeros, len(out.Data))
	}
	// AlwaysOn + eval: the Monte-Carlo mode drops at inference.
	d.Mode = AlwaysOn
	out = d.Forward(x, false)
	zeros = 0
	for _, v := range out.Data {
		if v == 0 {
			zeros++
		}
	}
	if zeros == 0 {
		t.Fatal("AlwaysOn dropout inactive at inference")
	}
}

func TestDropoutReseedReproducible(t *testing.T) {
	x := NewTensor(1, 1, 16, 16)
	x.Fill(1)
	d := NewDropout(0.5, 1)
	d.Mode = AlwaysOn
	d.Reseed(42)
	a := d.Forward(x, false)
	d.Reseed(42)
	b := d.Forward(x, false)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("reseeded dropout differs")
		}
	}
}

func TestDropoutBackwardMatchesMask(t *testing.T) {
	x := randomInput([]int{1, 2, 4, 4}, 8)
	d := NewDropout(0.4, 3)
	out := d.Forward(x, true)
	dout := out.ZerosLike()
	dout.Fill(1)
	dx := d.Backward(dout)
	for i := range out.Data {
		if out.Data[i] == 0 && dx.Data[i] != 0 {
			t.Fatal("gradient leaked through dropped unit")
		}
		if out.Data[i] != 0 && dx.Data[i] == 0 {
			t.Fatal("gradient blocked on surviving unit")
		}
	}
}

func TestUpsample2x(t *testing.T) {
	u := &Upsample2x{}
	x := NewTensor(1, 1, 2, 2)
	copy(x.Data, []float32{1, 2, 3, 4})
	out := u.Forward(x, false)
	if out.Shape[2] != 4 || out.Shape[3] != 4 {
		t.Fatalf("upsample shape %v", out.Shape)
	}
	if out.At4(0, 0, 0, 0) != 1 || out.At4(0, 0, 1, 1) != 1 || out.At4(0, 0, 3, 3) != 4 {
		t.Fatalf("upsample values wrong: %v", out.Data)
	}
	dout := out.ZerosLike()
	dout.Fill(1)
	dx := u.Backward(dout)
	for _, v := range dx.Data {
		if v != 4 {
			t.Fatalf("upsample backward = %v, want 4", v)
		}
	}
}

func TestSequentialComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := NewSequential(
		NewConv2D("c1", 1, 3, 3, 1, 1, 1, rng),
		&ReLU{},
		NewConv2D("c2", 3, 2, 3, 1, 1, 1, rng),
	)
	x := randomInput([]int{1, 1, 6, 6}, 3)
	numericGradCheck(t, net, x, false, 2e-2)
	if got := len(net.Params()); got != 4 {
		t.Errorf("params = %d, want 4", got)
	}
}

func TestParallelConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pc := NewParallelConcat(
		NewConv2D("b1", 2, 2, 3, 1, 1, 1, rng),
		NewConv2D("b2", 2, 3, 3, 1, 2, 2, rng),
	)
	x := randomInput([]int{1, 2, 6, 6}, 4)
	out := pc.Forward(x, false)
	if out.Shape[1] != 5 {
		t.Fatalf("concat channels = %d, want 5", out.Shape[1])
	}
	numericGradCheck(t, pc, x, false, 2e-2)
}

func TestSetDropoutModeWalksContainers(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	inner := NewSequential(NewDropout(0.5, 1), NewConv2D("c", 1, 1, 1, 1, 0, 1, rng))
	net := NewSequential(
		NewParallelConcat(inner, NewDropout(0.3, 2)),
		NewDropout(0.2, 3),
	)
	SetDropoutMode(net, AlwaysOn)
	found := 0
	Walk(net, func(l Layer) {
		if d, ok := l.(*Dropout); ok {
			found++
			if d.Mode != AlwaysOn {
				t.Error("dropout mode not set through nesting")
			}
		}
	})
	if found != 3 {
		t.Errorf("walked %d dropouts, want 3", found)
	}
}

func TestSoftmaxChannels(t *testing.T) {
	logits := NewTensor(1, 3, 2, 2)
	rng := rand.New(rand.NewSource(5))
	for i := range logits.Data {
		logits.Data[i] = rng.Float32()*10 - 5
	}
	probs := SoftmaxChannels(logits)
	for y := 0; y < 2; y++ {
		for x := 0; x < 2; x++ {
			var sum float64
			for c := 0; c < 3; c++ {
				p := float64(probs.At4(0, c, y, x))
				if p < 0 || p > 1 {
					t.Fatalf("prob %v outside [0,1]", p)
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-5 {
				t.Fatalf("probs sum to %v", sum)
			}
		}
	}
	// Softmax is shift-invariant per pixel.
	shifted := logits.Clone()
	for i := range shifted.Data {
		shifted.Data[i] += 100
	}
	probs2 := SoftmaxChannels(shifted)
	for i := range probs.Data {
		if math.Abs(float64(probs.Data[i]-probs2.Data[i])) > 1e-5 {
			t.Fatal("softmax not shift invariant")
		}
	}
}

func TestArgmaxChannels(t *testing.T) {
	s := NewTensor(1, 3, 1, 2)
	// pixel 0: class 2 wins; pixel 1: class 0 wins
	s.Set4(0, 0, 0, 0, 0.1)
	s.Set4(0, 1, 0, 0, 0.2)
	s.Set4(0, 2, 0, 0, 0.7)
	s.Set4(0, 0, 0, 1, 0.9)
	s.Set4(0, 1, 0, 1, 0.05)
	s.Set4(0, 2, 0, 1, 0.05)
	am := ArgmaxChannels(s)
	if am[0][0] != 2 || am[0][1] != 0 {
		t.Fatalf("argmax = %v", am[0])
	}
}

func TestCrossEntropyLossGradient(t *testing.T) {
	logits := randomInput([]int{1, 4, 3, 3}, 6)
	targets := [][]int{{0, 1, 2, 3, 0, 1, 2, 3, 0}}
	loss, grad := CrossEntropyLoss(logits, targets, nil)
	if loss <= 0 {
		t.Fatalf("loss = %v, want > 0 for random logits", loss)
	}
	const eps = 1e-2
	rng := rand.New(rand.NewSource(7))
	for _, idx := range sampleIndices(len(logits.Data), 20, rng) {
		orig := logits.Data[idx]
		logits.Data[idx] = orig + eps
		up, _ := CrossEntropyLoss(logits, targets, nil)
		logits.Data[idx] = orig - eps
		down, _ := CrossEntropyLoss(logits, targets, nil)
		logits.Data[idx] = orig
		want := (up - down) / (2 * eps)
		got := float64(grad.Data[idx])
		if math.Abs(got-want) > 1e-3 {
			t.Errorf("dlogits[%d] = %v, numeric %v", idx, got, want)
		}
	}
}

func TestCrossEntropyClassWeights(t *testing.T) {
	logits := randomInput([]int{1, 2, 1, 2}, 8)
	targets := [][]int{{0, 1}}
	// Zero weight on class 0 means only the class-1 pixel contributes.
	w := []float32{0, 1}
	lossW, gradW := CrossEntropyLoss(logits, targets, w)
	if lossW <= 0 {
		t.Fatal("weighted loss should be positive")
	}
	// Gradient at the class-0 pixel must be zero everywhere.
	for c := 0; c < 2; c++ {
		if gradW.At4(0, c, 0, 0) != 0 {
			t.Error("zero-weight pixel received gradient")
		}
	}
}

func TestTrainingConvergesOnTinyTask(t *testing.T) {
	// Two-class per-pixel classification where class = (red channel > 0).
	rng := rand.New(rand.NewSource(10))
	net := NewSequential(
		NewConv2D("c1", 1, 4, 3, 1, 1, 1, rng),
		&ReLU{},
		NewConv2D("c2", 4, 2, 1, 1, 0, 1, rng),
	)
	opt := NewAdam(0.02)
	var firstLoss, lastLoss float64
	for step := 0; step < 60; step++ {
		x := NewTensor(2, 1, 8, 8)
		targets := make([][]int, 2)
		for bi := 0; bi < 2; bi++ {
			targets[bi] = make([]int, 64)
			for i := 0; i < 64; i++ {
				v := rng.Float32()*2 - 1
				x.Data[bi*64+i] = v
				if v > 0 {
					targets[bi][i] = 1
				}
			}
		}
		logits := net.Forward(x, true)
		loss, grad := CrossEntropyLoss(logits, targets, nil)
		net.Backward(grad)
		opt.Step(net.Params())
		if step == 0 {
			firstLoss = loss
		}
		lastLoss = loss
	}
	if lastLoss >= firstLoss*0.5 {
		t.Errorf("training failed to converge: first %v, last %v", firstLoss, lastLoss)
	}
}

func TestCheckpointRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	build := func() *Sequential {
		r := rand.New(rand.NewSource(12))
		return NewSequential(
			NewConv2D("c1", 1, 3, 3, 1, 1, 1, r),
			NewBatchNorm2D("bn", 3),
			&ReLU{},
			NewConv2D("c2", 3, 2, 1, 1, 0, 1, r),
		)
	}
	src := build()
	// Perturb parameters and running stats so they differ from a fresh net.
	for _, p := range src.Params() {
		for i := range p.Value.Data {
			p.Value.Data[i] = rng.Float32()
		}
	}
	Walk(src, func(l Layer) {
		if bn, ok := l.(*BatchNorm2D); ok {
			for i := range bn.RunningMean {
				bn.RunningMean[i] = 0.5
				bn.RunningVar[i] = 2.0
			}
		}
	})
	var buf bytes.Buffer
	if err := SaveParams(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := build()
	if err := LoadParams(&buf, dst); err != nil {
		t.Fatal(err)
	}
	sp, dp := src.Params(), dst.Params()
	for i := range sp {
		for j := range sp[i].Value.Data {
			if sp[i].Value.Data[j] != dp[i].Value.Data[j] {
				t.Fatalf("param %d differs after roundtrip", i)
			}
		}
	}
	Walk(dst, func(l Layer) {
		if bn, ok := l.(*BatchNorm2D); ok {
			if bn.RunningMean[0] != 0.5 || bn.RunningVar[0] != 2.0 {
				t.Error("running stats not restored")
			}
		}
	})
	// Same input must produce bit-identical eval outputs.
	x := randomInput([]int{1, 1, 6, 6}, 13)
	a := src.Forward(x, false)
	b := dst.Forward(x, false)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("outputs differ after checkpoint roundtrip")
		}
	}
}

func TestLoadParamsRejectsMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	src := NewSequential(NewConv2D("c", 1, 2, 3, 1, 1, 1, rng))
	var buf bytes.Buffer
	if err := SaveParams(&buf, src); err != nil {
		t.Fatal(err)
	}
	other := NewSequential(NewConv2D("c", 1, 3, 3, 1, 1, 1, rng))
	if err := LoadParams(&buf, other); err == nil {
		t.Fatal("expected error loading mismatched architecture")
	}
}

func TestTensorProperties(t *testing.T) {
	property := func(a, b int8) bool {
		h := int(a%5) + 7 // always >= 2 for int8 remainders in [-4, 4]
		w := int(b%5) + 7
		x := NewTensor(1, 1, h, w)
		if x.Numel() != h*w {
			return false
		}
		x.Fill(3)
		y := x.Clone()
		y.AddScaled(x, -1)
		for _, v := range y.Data {
			if v != 0 {
				return false
			}
		}
		return x.SameShape(y)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNewTensorPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero dimension")
		}
	}()
	NewTensor(2, 0, 2)
}
