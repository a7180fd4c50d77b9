// Package nn is a small, dependency-free neural network substrate: float32
// tensors, 2-D convolutions with dilation, batch normalization, dropout with
// a Monte-Carlo inference mode, sequential and parallel-concat containers,
// softmax cross-entropy, SGD/Adam optimizers and parameter serialization.
//
// It substitutes for the GPU deep-learning stack the paper's MSDnet runs on.
// The API is deliberately minimal: everything the segmentation model and the
// Bayesian monitor need, nothing more.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense row-major float32 array with an explicit shape.
type Tensor struct {
	Shape []int
	Data  []float32
}

// NewTensor allocates a zeroed tensor with the given shape.
func NewTensor(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("nn: non-positive dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// Numel returns the number of elements.
func (t *Tensor) Numel() int { return len(t.Data) }

// Dims4 returns the NCHW dimensions of a 4-D tensor, panicking otherwise:
// layers in this package operate on image batches exclusively.
func (t *Tensor) Dims4() (n, c, h, w int) {
	if len(t.Shape) != 4 {
		panic(fmt.Sprintf("nn: expected 4-D tensor, got shape %v", t.Shape))
	}
	return t.Shape[0], t.Shape[1], t.Shape[2], t.Shape[3]
}

// Dims5 returns the dimensions of a Monte-Carlo sample batch [N,C,H,W,S]:
// S samples of an NCHW image batch, laid out sample-minor, so element
// (n, c, y, x, s) sits at (((n*C + c)*H + y)*W + x)*S + s. A 4-D tensor is
// the S = 1 case. Other ranks panic. Only the inference layers that
// compute each sample's bits as a 4-D pass would (Conv2D, BatchNorm2D,
// Dropout, the concats and the channel softmax) read this layout; every
// other layer calls Dims4, which refuses it, so a layer that has not been
// taught the layout cannot mix samples.
func (t *Tensor) Dims5() (n, c, h, w, s int) {
	switch len(t.Shape) {
	case 4:
		return t.Shape[0], t.Shape[1], t.Shape[2], t.Shape[3], 1
	case 5:
		return t.Shape[0], t.Shape[1], t.Shape[2], t.Shape[3], t.Shape[4]
	}
	panic(fmt.Sprintf("nn: expected 4-D or 5-D tensor, got shape %v", t.Shape))
}

// Replicate returns the sample batch [N,C,H,W,S] (see Dims5) of S copies of
// the 4-D x: every sample of element (n, c, y, x) holds x's value there.
// The batch is drawn from sc; x is left as it is.
func Replicate(x *Tensor, samples int, sc *Scratch) *Tensor {
	n, c, h, w := x.Dims4()
	out := sc.Get(n, c, h, w, samples)
	for i, v := range x.Data {
		dst := out.Data[i*samples : (i+1)*samples]
		for j := range dst {
			dst[j] = v
		}
	}
	return out
}

// allocLike returns a layer output of c channels of h×w in x's layout:
// NCHW for a 4-D x, and [N,C,H,W,S] with x's samples for a sample batch.
func allocLike(sc *Scratch, train bool, x *Tensor, c, h, w int) *Tensor {
	n, _, _, _, s := x.Dims5()
	if len(x.Shape) == 5 {
		return allocOut(sc, train, n, c, h, w, s)
	}
	return allocOut(sc, train, n, c, h, w)
}

// At4 returns the element at NCHW position (n, c, y, x).
func (t *Tensor) At4(n, c, y, x int) float32 {
	return t.Data[((n*t.Shape[1]+c)*t.Shape[2]+y)*t.Shape[3]+x]
}

// Set4 writes the element at NCHW position (n, c, y, x).
func (t *Tensor) Set4(n, c, y, x int, v float32) {
	t.Data[((n*t.Shape[1]+c)*t.Shape[2]+y)*t.Shape[3]+x] = v
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	out := &Tensor{Shape: append([]int(nil), t.Shape...), Data: make([]float32, len(t.Data))}
	copy(out.Data, t.Data)
	return out
}

// ZerosLike returns a zeroed tensor with the same shape.
func (t *Tensor) ZerosLike() *Tensor {
	return &Tensor{Shape: append([]int(nil), t.Shape...), Data: make([]float32, len(t.Data))}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero resets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// AddScaled accumulates alpha*o into t element-wise.
func (t *Tensor) AddScaled(o *Tensor, alpha float32) {
	if len(t.Data) != len(o.Data) {
		panic(fmt.Sprintf("nn: AddScaled shape mismatch %v vs %v", t.Shape, o.Shape))
	}
	for i, v := range o.Data {
		t.Data[i] += alpha * v
	}
}

// SameShape reports whether the two tensors have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != o.Shape[i] {
			return false
		}
	}
	return true
}

// HeInit fills the tensor with Kaiming-He normal values for the given
// fan-in, the standard initialization for ReLU convolution stacks.
func (t *Tensor) HeInit(fanIn int, rng *rand.Rand) {
	std := float32(math.Sqrt(2.0 / float64(fanIn)))
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64()) * std
	}
}

// Param is a trainable tensor with its gradient accumulator.
type Param struct {
	Name  string
	Value *Tensor
	Grad  *Tensor
}

// NewParam allocates a parameter and its gradient with the given shape.
func NewParam(name string, shape ...int) *Param {
	return &Param{Name: name, Value: NewTensor(shape...), Grad: NewTensor(shape...)}
}

// Layer is one differentiable stage. Forward caches whatever Backward needs;
// Backward consumes the gradient w.r.t. its output and returns the gradient
// w.r.t. its input, accumulating parameter gradients along the way.
type Layer interface {
	Forward(x *Tensor, train bool) *Tensor
	Backward(dout *Tensor) *Tensor
	Params() []*Param
}

// Visitor visits every primitive layer in a (possibly nested) network.
type Visitor func(Layer)

// Walker is implemented by containers that hold sub-layers.
type Walker interface {
	Walk(v Visitor)
}

// Walk applies v to every primitive layer reachable from l, including l
// itself when it is primitive.
func Walk(l Layer, v Visitor) {
	if w, ok := l.(Walker); ok {
		w.Walk(v)
		return
	}
	v(l)
}
