package nn

import (
	"context"
	"fmt"
	"math"

	"safeland/internal/cpu"
)

// epilogueLen is the length of one block of fused BatchNorm→ReLU constants:
// the running mean, γ, 1/√(var+ε) and β of convLanes output channels, in
// that order.
const epilogueLen = 4 * convLanes

// NewFrozenNet returns an inference network that computes l's inference
// outputs (train=false) bit for bit with less work. It mirrors l's
// containers, and each Conv2D becomes an inference-only fused layer:
//   - its weights are packed once, here, instead of on every forward;
//   - when the Conv2D is followed by a BatchNorm2D and a ReLU, the fused
//     layer also applies both to each row of conv results before storing
//     it — BatchNorm's exact g*(v-mean)*inv + b with inv = 1/√(var+ε)
//     computed here as BatchNorm computes it, then v > 0 ? v : 0 — so the
//     network keeps no ReLU mask, batch-norm cache or conv input cache;
//   - a ParallelConcat whose branches each freeze to one fused conv
//     becomes one layer (fusedConcat) that runs each conv straight into
//     its channel slice of the concat's output.
//
// Every other layer — Dropout and Upsample2x in MSDnet — is l's own
// instance, so SetDropoutMode and ReseedDropout on either network reach the
// same dropouts and decision records. The two networks are one replica:
// never run them concurrently.
//
// The frozen network reads the weights and batch-norm statistics once, so
// it never sees a later change to them; build it only over weights that no
// longer train. It has no Backward and no parameters, and a training pass
// through a fused layer panics. l itself is left unchanged.
func NewFrozenNet(l Layer) Layer {
	switch v := l.(type) {
	case *Sequential:
		layers := make([]Layer, 0, len(v.Layers))
		for i := 0; i < len(v.Layers); i++ {
			c, ok := v.Layers[i].(*Conv2D)
			if !ok {
				layers = append(layers, NewFrozenNet(v.Layers[i]))
				continue
			}
			var bn *BatchNorm2D
			if i+2 < len(v.Layers) {
				bn, _ = v.Layers[i+1].(*BatchNorm2D)
				if _, relu := v.Layers[i+2].(*ReLU); !relu || bn == nil || bn.C != c.OutC {
					bn = nil
				}
			}
			layers = append(layers, newFusedConv(c, bn))
			if bn != nil {
				i += 2
			}
		}
		return &Sequential{Layers: layers, sc: v.sc}
	case *ParallelConcat:
		branches := make([]Layer, len(v.Branches))
		for i, b := range v.Branches {
			branches[i] = NewFrozenNet(b)
		}
		if f := newFusedConcat(branches, v.sc); f != nil {
			return f
		}
		return &ParallelConcat{Branches: branches, sc: v.sc}
	case *Conv2D:
		return newFusedConv(v, nil)
	default:
		return l
	}
}

// fusedConv is the frozen network's convolution: a Conv2D whose weights
// were packed once and, when ep is non-nil, whose results pass through a
// BatchNorm→ReLU epilogue before they are stored.
type fusedConv struct {
	// conv is a private copy of the source layer's geometry and arena; its
	// packed buffer holds the weights and its runs buffer is this layer's.
	conv *Conv2D
	// ep holds one epilogueLen block per convLanes output channels; the
	// padding lanes of the last block are zero.
	ep []float32
}

// newFusedConv packs c's weights and, when bn is non-nil, the epilogue of
// bn followed by a ReLU.
func newFusedConv(c *Conv2D, bn *BatchNorm2D) *fusedConv {
	f := &fusedConv{conv: &Conv2D{
		InC: c.InC, OutC: c.OutC, K: c.K, Stride: c.Stride, Pad: c.Pad, Dilation: c.Dilation,
		W: c.W, B: c.B, sc: c.sc,
	}}
	f.conv.packWeights()
	if bn == nil {
		return f
	}
	f.ep = make([]float32, (c.OutC+convLanes-1)/convLanes*epilogueLen)
	for oc := 0; oc < c.OutC; oc++ {
		e := f.ep[oc/convLanes*epilogueLen+oc%convLanes:]
		e[0] = bn.RunningMean[oc]
		e[convLanes] = bn.Gamma.Value.Data[oc]
		e[2*convLanes] = float32(1 / math.Sqrt(float64(bn.RunningVar[oc]+bn.Eps)))
		e[3*convLanes] = bn.Beta.Value.Data[oc]
	}
	return f
}

func (f *fusedConv) setScratch(s *Scratch) { f.conv.sc = s }

// Forward runs the convolution and its epilogue. It panics on a training
// pass: the frozen network has no Backward.
func (f *fusedConv) Forward(x *Tensor, train bool) *Tensor {
	if train {
		panic("nn: training pass through a frozen inference network")
	}
	out := f.conv.output(x, false)
	f.conv.run(x, out, f.conv.packed, f.ep, 0)
	return out
}

// Backward panics: the frozen network is inference-only.
func (f *fusedConv) Backward(*Tensor) *Tensor {
	panic("nn: Backward through a frozen inference network")
}

// Params returns nil: the weights were read once, at construction.
func (f *fusedConv) Params() []*Param { return nil }

// fusedConcat is the frozen network's ParallelConcat when every branch
// froze to one fused conv: each conv stores straight into its channel
// slice of one output, so no branch output is allocated or copied. The
// channels land where ParallelConcat's copy would put them, so the output
// is the same bits.
type fusedConcat struct {
	convs []*fusedConv
	// off holds each conv's first output channel; outC is their total.
	off  []int
	outC int
	sc   *Scratch
}

// newFusedConcat returns the fused concat of frozen branches, or nil when
// there is none or a branch is not one fused conv, bare or as the single
// layer of a Sequential.
func newFusedConcat(branches []Layer, sc *Scratch) *fusedConcat {
	if len(branches) == 0 {
		return nil
	}
	f := &fusedConcat{sc: sc}
	for _, b := range branches {
		if s, ok := b.(*Sequential); ok && len(s.Layers) == 1 {
			b = s.Layers[0]
		}
		c, ok := b.(*fusedConv)
		if !ok {
			return nil
		}
		f.convs = append(f.convs, c)
		f.off = append(f.off, f.outC)
		f.outC += c.conv.OutC
	}
	return f
}

func (f *fusedConcat) setScratch(s *Scratch) { f.sc = s }

// Walk visits each branch conv.
func (f *fusedConcat) Walk(v Visitor) {
	for _, c := range f.convs {
		v(c)
	}
}

// Forward runs every branch conv into its channel slice of one output. It
// panics on a training pass, like fusedConv.
func (f *fusedConcat) Forward(x *Tensor, train bool) *Tensor {
	out, _ := f.ForwardCtx(context.Background(), x, train)
	return out
}

// ForwardCtx implements ContextForwarder: ctx is checked before each
// branch conv, so one conv stays the cancellation granularity. On
// cancellation the partly written output returns to the arena.
func (f *fusedConcat) ForwardCtx(ctx context.Context, x *Tensor, train bool) (*Tensor, error) {
	if train {
		panic("nn: training pass through a frozen inference network")
	}
	_, ic, h, w, _ := x.Dims5()
	oh, ow := f.convs[0].conv.OutSize(h, w)
	for i, c := range f.convs {
		if ic != c.conv.InC {
			panic(fmt.Sprintf("nn: conv expects %d input channels, got %d", c.conv.InC, ic))
		}
		if bh, bw := c.conv.OutSize(h, w); bh != oh || bw != ow {
			panic(fmt.Sprintf("nn: branch %d output %dx%d mismatches %dx%d", i, bh, bw, oh, ow))
		}
	}
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: conv output %dx%d non-positive for input %dx%d", oh, ow, h, w))
	}
	out := allocLike(f.sc, false, x, f.outC, oh, ow)
	for i, c := range f.convs {
		if err := ctx.Err(); err != nil {
			f.sc.Put(out)
			return nil, err
		}
		c.conv.run(x, out, c.conv.packed, c.ep, f.off[i])
	}
	return out, nil
}

// Backward panics: the frozen network is inference-only.
func (f *fusedConcat) Backward(*Tensor) *Tensor {
	panic("nn: Backward through a frozen inference network")
}

// Params returns nil: the weights were read once, at construction.
func (f *fusedConcat) Params() []*Param { return nil }

// bnReLU applies one block of epilogue constants to each pixel of res,
// convLanes lanes per pixel: lane l becomes γ*(v-mean)*inv + β, then
// v > 0 ? v : 0. It runs bnReLUAVX where the CPU has AVX (cpu.Use) and
// bnReLUGo elsewhere; both give BatchNorm2D.Forward then ReLU.Forward's
// bits.
func bnReLU(res []float32, ep *[epilogueLen]float32) {
	if cpu.Use.AVX {
		bnReLUAVX(res, ep)
		return
	}
	bnReLUGo(res, ep)
}

// bnReLUGo is the portable epilogue. The float32 conversion rounds the
// product before β is added, as amd64 does, so no GOARCH fuses the two
// into one multiply-add.
func bnReLUGo(res []float32, ep *[epilogueLen]float32) {
	mean, gamma := ep[:convLanes], ep[convLanes:2*convLanes]
	inv, beta := ep[2*convLanes:3*convLanes], ep[3*convLanes:]
	for p := 0; p+convLanes <= len(res); p += convLanes {
		px := res[p : p+convLanes]
		for l, v := range px {
			v = float32(gamma[l]*(v-mean[l])*inv[l]) + beta[l]
			px[l] = math.Float32frombits(math.Float32bits(v) & -positive(v))
		}
	}
}
