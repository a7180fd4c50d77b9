package nn

import (
	"fmt"
	"math/rand"
)

// Conv2D is a 2-D convolution with configurable stride, zero padding and
// dilation. Dilation is the mechanism behind the paper's Multi-Scale-Dilation
// net: parallel branches with dilation 1, 2, 4, ... observe the same input at
// growing receptive fields without losing resolution.
//
// Forward computes convLanes output channels of one output pixel at a time.
// It repacks the weights so the convLanes channels of each tap sit side by
// side, clamps the pixel's valid taps once with tapRange, and hands the tap
// loop to convTaps: SSE on amd64 (conv_amd64.s), portable Go elsewhere.
// Every lane starts from its bias and adds each product, rounded to float32,
// in the icc→ky→kx order of the naive reference loop (convRefForward in the
// tests), skipping out-of-range taps instead of adding zero padding, so
// outputs are byte-identical to that loop at every geometry.
type Conv2D struct {
	InC, OutC int
	K         int // square kernel size
	Stride    int
	Pad       int
	Dilation  int

	W *Param // [OutC, InC, K, K]
	B *Param // [OutC]

	x      *Tensor // cached input for backward
	sc     *Scratch
	packed []float32 // W repacked per Forward, see packWeights
}

// convLanes is how many output channels one convTaps call accumulates: four
// 4-wide SSE registers.
const convLanes = 16

// NewConv2D constructs a convolution with He-initialized weights.
func NewConv2D(name string, inC, outC, k, stride, pad, dilation int, rng *rand.Rand) *Conv2D {
	if stride < 1 || dilation < 1 || k < 1 {
		panic(fmt.Sprintf("nn: invalid conv config k=%d stride=%d dilation=%d", k, stride, dilation))
	}
	c := &Conv2D{
		InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad, Dilation: dilation,
		W: NewParam(name+".W", outC, inC, k, k),
		B: NewParam(name+".B", outC),
	}
	c.W.Value.HeInit(inC*k*k, rng)
	return c
}

func (c *Conv2D) setScratch(s *Scratch) { c.sc = s }

// OutSize returns the output spatial size for an input of the given size.
func (c *Conv2D) OutSize(h, w int) (oh, ow int) {
	ext := (c.K-1)*c.Dilation + 1
	oh = (h+2*c.Pad-ext)/c.Stride + 1
	ow = (w+2*c.Pad-ext)/c.Stride + 1
	return oh, ow
}

// tapRange returns the contiguous index range [lo, hi] of kernel taps t in
// [0, count) whose sample position off + t*step stays inside [0, limit),
// for step >= 1. hi < lo when no tap is valid. The valid taps are always
// contiguous because the position is monotone in t — which is what lets the
// inner loops drop per-tap bounds checks without changing which terms are
// accumulated.
func tapRange(off, step, count, limit int) (lo, hi int) {
	lo, hi = 0, count-1
	if off >= limit {
		return 1, 0
	}
	if off < 0 {
		lo = (-off + step - 1) / step
	}
	if last := off + hi*step; last >= limit {
		hi = (limit - 1 - off) / step
	}
	return lo, hi
}

// packWeights copies W into c.packed as [block][InC][K][K][convLanes], one
// block per convLanes output channels (the last one padded with zero
// lanes). Packing on every call costs a few microseconds and can never
// serve stale weights, neither during training nor on a frozen clone whose
// parameters alias another model's; the buffer is reused, so warm forwards
// do not allocate.
func (c *Conv2D) packWeights() []float32 {
	taps := c.InC * c.K * c.K
	blocks := (c.OutC + convLanes - 1) / convLanes
	if size := blocks * taps * convLanes; len(c.packed) != size {
		c.packed = make([]float32, size) // the padding lanes stay zero
	}
	for oc := 0; oc < c.OutC; oc++ {
		dst := c.packed[(oc/convLanes)*taps*convLanes+oc%convLanes:]
		for t, wv := range c.W.Value.Data[oc*taps : (oc+1)*taps] {
			dst[t*convLanes] = wv
		}
	}
	return c.packed
}

// Forward computes the convolution. The input is cached for Backward.
func (c *Conv2D) Forward(x *Tensor, train bool) *Tensor {
	n, ic, h, w := x.Dims4()
	if ic != c.InC {
		panic(fmt.Sprintf("nn: conv expects %d input channels, got %d", c.InC, ic))
	}
	oh, ow := c.OutSize(h, w)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: conv output %dx%d non-positive for input %dx%d", oh, ow, h, w))
	}
	out := allocOut(c.sc, train, n, c.OutC, oh, ow)
	// Cache the input only when a Backward can legitimately follow: on
	// training passes, or without an arena (the bare-layer gradient tests
	// run eval-mode forwards). With an arena attached, an inference pass
	// recycles x mid-chain, so a stale cache would feed Backward overwritten
	// data — leave it nil and let Backward fail loudly instead.
	if train || c.sc == nil {
		c.x = x
	} else {
		c.x = nil
	}

	packed := c.packWeights()
	bdat := c.B.Value.Data
	xd, od := x.Data, out.Data
	k, d := c.K, c.Dilation
	hw, ohw := h*w, oh*ow
	blockLen := c.InC * k * k * convLanes
	lastC := c.InC - 1

	// Parallelize over (batch, output row) pairs: disjoint output slices.
	parallelFor(n*oh, func(job int) {
		bi, oy := job/oh, job%oh
		iy0 := oy*c.Stride - c.Pad
		kyLo, kyHi := tapRange(iy0, d, k, h)
		xB := bi * c.InC * hw
		outRow := bi*c.OutC*ohw + oy*ow
		var acc [convLanes]float32
		for ox := 0; ox < ow; ox++ {
			ix0 := ox*c.Stride - c.Pad
			kxLo, kxHi := tapRange(ix0, d, k, w)
			ny, nx := kyHi-kyLo+1, kxHi-kxLo+1
			// The first tap (channel 0, kyLo, kxLo) and the last (channel
			// InC-1, kyHi, kxHi) bound the slices handed to convTaps, so a
			// wrong tap range panics here instead of the assembly reading
			// past the tensor.
			xFirst := xB + (iy0+kyLo*d)*w + ix0 + kxLo*d
			xLast := xB + lastC*hw + (iy0+kyHi*d)*w + ix0 + kxHi*d
			wFirst := (kyLo*k + kxLo) * convLanes
			wEnd := ((lastC*k+kyHi)*k + kxHi + 1) * convLanes
			for oc0 := 0; oc0 < c.OutC; oc0 += convLanes {
				live := min(convLanes, c.OutC-oc0)
				acc = [convLanes]float32{}
				copy(acc[:live], bdat[oc0:])
				if ny > 0 && nx > 0 {
					wb := packed[oc0/convLanes*blockLen:]
					convTaps(&acc, wb[wFirst:wEnd], xd[xFirst:xLast+1],
						c.InC, ny, nx, hw, d*w, d, k*k*convLanes, k*convLanes)
				}
				o := outRow + oc0*ohw + ox
				for _, v := range acc[:live] {
					od[o] = v
					o += ohw
				}
			}
		}
	})
	return out
}

// convTapsGo is the portable body of convTaps, the kernel on every GOARCH
// without an assembly one. For nc channels × ny rows × nx columns of taps
// it adds w[tap lanes] × x[tap] to the convLanes accumulators, where tap
// (ci, y, t) reads x[ci*xc + y*xy + t*xx] and the convLanes weights from
// w[ci*wc + y*wy + t*convLanes]. Each product is rounded to float32 before
// the add: the explicit conversion forbids the compiler from fusing the
// multiply-add (arm64 would emit FMADDS), which would break byte parity.
func convTapsGo(acc *[convLanes]float32, w, x []float32, nc, ny, nx, xc, xy, xx, wc, wy int) {
	for ci := 0; ci < nc; ci++ {
		for y := 0; y < ny; y++ {
			wi, xi := ci*wc+y*wy, ci*xc+y*xy
			for t := 0; t < nx; t++ {
				xv := x[xi+t*xx]
				for l, wv := range w[wi+t*convLanes : wi+(t+1)*convLanes] {
					acc[l] += float32(wv * xv)
				}
			}
		}
	}
}

// Backward accumulates dW and dB from the cached input and returns dX.
// Like Forward, the dW and dX gathers hoist the bounds checks: valid output
// (resp. kernel) positions are clamped to contiguous ranges outside the
// inner loops, which then run unchecked — in the reference accumulation
// order, so training gradients stay byte-identical too.
func (c *Conv2D) Backward(dout *Tensor) *Tensor {
	x := c.x
	if x == nil {
		panic("nn: conv Backward before Forward")
	}
	n, _, h, w := x.Dims4()
	_, _, oh, ow := dout.Dims4()
	dx := x.ZerosLike()
	wdat := c.W.Value.Data
	xd := x.Data
	dd := dout.Data
	kk := c.K * c.K
	hw := h * w
	ohw := oh * ow

	// dB and dW: parallel over output channels (disjoint grad slices).
	parallelFor(c.OutC, func(oc int) {
		var db float32
		for bi := 0; bi < n; bi++ {
			base := (bi*c.OutC + oc) * ohw
			for _, v := range dd[base : base+ohw] {
				db += v
			}
		}
		c.B.Grad.Data[oc] += db

		for icc := 0; icc < c.InC; icc++ {
			for ky := 0; ky < c.K; ky++ {
				offY := ky*c.Dilation - c.Pad
				oyLo, oyHi := tapRange(offY, c.Stride, oh, h)
				for kx := 0; kx < c.K; kx++ {
					offX := kx*c.Dilation - c.Pad
					oxLo, oxHi := tapRange(offX, c.Stride, ow, w)
					var dw float32
					if oyHi >= oyLo && oxHi >= oxLo {
						for bi := 0; bi < n; bi++ {
							doutBase := (bi*c.OutC + oc) * ohw
							xBase := (bi*c.InC + icc) * hw
							for oy := oyLo; oy <= oyHi; oy++ {
								iy := oy*c.Stride + offY
								dRow := doutBase + oy*ow
								xRow := xBase + iy*w + offX
								if c.Stride == 1 {
									dr := dd[dRow+oxLo : dRow+oxHi+1]
									xr := xd[xRow+oxLo : xRow+oxHi+1]
									for i, dv := range dr {
										dw += dv * xr[i]
									}
								} else {
									for ox := oxLo; ox <= oxHi; ox++ {
										dw += dd[dRow+ox] * xd[xRow+ox*c.Stride]
									}
								}
							}
						}
					}
					c.W.Grad.Data[((oc*c.InC+icc)*c.K+ky)*c.K+kx] += dw
				}
			}
		}
	})

	// dX gather: parallel over (batch, in-channel) pairs. The ky/kx tap
	// ranges are clamped per input row/column; only the stride-divisibility
	// filter remains inside (and vanishes at stride 1).
	parallelFor(n*c.InC, func(job int) {
		bi, icc := job/c.InC, job%c.InC
		dxBase := (bi*c.InC + icc) * hw
		doutB := bi * c.OutC * ohw
		for iy := 0; iy < h; iy++ {
			kyHi := (iy + c.Pad) / c.Dilation
			if kyHi > c.K-1 {
				kyHi = c.K - 1
			}
			kyLo := 0
			if over := iy + c.Pad - (oh-1)*c.Stride; over > 0 {
				kyLo = (over + c.Dilation - 1) / c.Dilation
			}
			for ix := 0; ix < w; ix++ {
				kxHi := (ix + c.Pad) / c.Dilation
				if kxHi > c.K-1 {
					kxHi = c.K - 1
				}
				kxLo := 0
				if over := ix + c.Pad - (ow-1)*c.Stride; over > 0 {
					kxLo = (over + c.Dilation - 1) / c.Dilation
				}
				var acc float32
				for ky := kyLo; ky <= kyHi; ky++ {
					ny := iy + c.Pad - ky*c.Dilation
					if c.Stride > 1 && ny%c.Stride != 0 {
						continue
					}
					oy := ny / c.Stride
					wKy := icc*kk + ky*c.K
					dKy := doutB + oy*ow
					for kx := kxLo; kx <= kxHi; kx++ {
						nx := ix + c.Pad - kx*c.Dilation
						if c.Stride > 1 && nx%c.Stride != 0 {
							continue
						}
						ox := nx / c.Stride
						wIdx := wKy + kx
						dIdx := dKy + ox
						for oc := 0; oc < c.OutC; oc++ {
							acc += wdat[oc*c.InC*kk+wIdx] * dd[dIdx+oc*ohw]
						}
					}
				}
				dx.Data[dxBase+iy*w+ix] = acc
			}
		}
	})
	return dx
}

// Params returns the kernel and bias parameters.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }
