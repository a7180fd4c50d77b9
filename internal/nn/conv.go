package nn

import (
	"fmt"
	"math/rand"

	"safeland/internal/cpu"
)

// Conv2D is a 2-D convolution with configurable stride, zero padding and
// dilation. Dilation is the mechanism behind the paper's Multi-Scale-Dilation
// net: parallel branches with dilation 1, 2, 4, ... observe the same input at
// growing receptive fields without losing resolution.
//
// Forward computes convLanes output channels of a run of output pixels at a
// time. It repacks the weights so the convLanes channels of each tap sit
// side by side behind their biases, splits each output row into runs of
// pixels whose valid kx taps are the same (tapRange), and hands each run to
// convRun: AVX-512 or AVX on amd64 CPUs that have them (conv_amd64.s), the
// portable convTapsGo pixel by pixel elsewhere. Every lane starts from its
// bias and adds each product, rounded to float32, in the icc→ky→kx order of
// the naive reference loop (convRefForward in the tests), skipping
// out-of-range taps instead of adding zero padding, so outputs are
// byte-identical to that loop at every geometry and on every kernel.
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
	packed []float32 // B and W as packWeights lays them out: per Forward, or once in a fusedConv's copy
	runs   []colRun  // output column runs per Forward, see columnRuns
}

// convLanes is how many output channels convRun accumulates per pixel: one
// AVX-512 register, or two 8-wide AVX registers.
const convLanes = 16

// convRunMax is the chunk of output columns Forward computes before
// storing them: one chunk's results fill a stack buffer of convRunMax ×
// convLanes floats.
const convRunMax = 32

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

// packWeights copies B and W into c.packed as [block][1+InC*K*K][convLanes],
// one block per convLanes output channels (the last one padded with zero
// lanes): the block's biases, then its taps in [InC][K][K] order. Forward
// packs on every call, which costs a few microseconds and can never serve
// stale weights during training; the buffer is reused, so warm forwards do
// not allocate. The frozen network's fused layers pack once, when
// NewFrozenNet builds them.
func (c *Conv2D) packWeights() []float32 {
	taps := c.InC * c.K * c.K
	blockLen := (1 + taps) * convLanes
	blocks := (c.OutC + convLanes - 1) / convLanes
	if size := blocks * blockLen; len(c.packed) != size {
		c.packed = make([]float32, size) // the padding lanes stay zero
	}
	packed, wd := c.packed, c.W.Value.Data
	for oc, bv := range c.B.Value.Data[:c.OutC] {
		j := (oc/convLanes)*blockLen + oc%convLanes
		packed[j] = bv
		for _, wv := range wd[oc*taps : (oc+1)*taps] {
			j += convLanes
			packed[j] = wv
		}
	}
	return packed
}

// colRun is a run of n output columns from ox whose valid kx taps are all
// [kxLo, kxHi].
type colRun struct{ ox, n, kxLo, kxHi int }

// columnRuns splits the ow output columns of an input w wide into runs of
// equal kx tap window, reusing c.runs. The window only shrinks as ox grows,
// so equal windows are contiguous: the interior is one run between the few
// columns whose taps overhang an edge. Runs also break at every multiple of
// convRunMax, so each chunk of convRunMax columns is whole runs.
func (c *Conv2D) columnRuns(w, ow int) []colRun {
	runs := c.runs[:0]
	for ox := 0; ox < ow; ox++ {
		lo, hi := tapRange(ox*c.Stride-c.Pad, c.Dilation, c.K, w)
		if last := len(runs) - 1; last >= 0 && ox%convRunMax != 0 {
			if r := &runs[last]; r.kxLo == lo && r.kxHi == hi {
				r.n++
				continue
			}
		}
		runs = append(runs, colRun{ox: ox, n: 1, kxLo: lo, kxHi: hi})
	}
	c.runs = runs
	return runs
}

// Forward computes the convolution. The input is cached for Backward.
func (c *Conv2D) Forward(x *Tensor, train bool) *Tensor {
	out := c.output(x, train)
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
	c.run(x, out, c.packWeights(), nil, 0)
	return out
}

// output checks x against the convolution's geometry and returns the
// tensor its output goes to.
func (c *Conv2D) output(x *Tensor, train bool) *Tensor {
	n, ic, h, w := x.Dims4()
	if ic != c.InC {
		panic(fmt.Sprintf("nn: conv expects %d input channels, got %d", c.InC, ic))
	}
	oh, ow := c.OutSize(h, w)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: conv output %dx%d non-positive for input %dx%d", oh, ow, h, w))
	}
	return allocOut(c.sc, train, n, c.OutC, oh, ow)
}

// run convolves x into channels [off, off+OutC) of out with packed, B and
// W as packWeights lays them out. It is the body Forward and the frozen
// network's fused layers run: off is 0 unless the conv is one branch of a
// fused concat (fusedConcat), and ep is nil for a plain convolution and
// otherwise holds one epilogueLen block of BatchNorm→ReLU constants per
// convLanes output channels (see fusedConv), applied to each chunk of
// results before it is stored.
func (c *Conv2D) run(x, out *Tensor, packed, ep []float32, off int) {
	n, _, h, w := x.Dims4()
	_, outC, oh, ow := out.Dims4()
	runs := c.columnRuns(w, ow)
	xd, od := x.Data, out.Data
	k, d := c.K, c.Dilation
	hw, ohw := h*w, oh*ow
	blockLen := (1 + c.InC*k*k) * convLanes
	lastC := c.InC - 1

	// One job per (batch, output row) pair, on the calling goroutine.
	for job := 0; job < n*oh; job++ {
		bi, oy := job/oh, job%oh
		iy0 := oy*c.Stride - c.Pad
		kyLo, kyHi := tapRange(iy0, d, k, h)
		ny := kyHi - kyLo + 1
		xB := bi * c.InC * hw
		outRow := (bi*outC+off)*ohw + oy*ow
		// res holds one chunk of up to convRunMax columns, pixel-major, for
		// one block of output channels.
		var res [convRunMax * convLanes]float32
		for oc0 := 0; oc0 < c.OutC; oc0 += convLanes {
			block := packed[oc0/convLanes*blockLen:]
			var epi *[epilogueLen]float32
			if ep != nil {
				epi = (*[epilogueLen]float32)(ep[oc0/convLanes*epilogueLen:])
			}
			live := min(convLanes, c.OutC-oc0)
			chunk := 0
			for _, r := range runs {
				if r.ox == chunk+convRunMax {
					finishRun(od[outRow+oc0*ohw+chunk:], ohw, res[:], convRunMax, live, epi)
					chunk = r.ox
				}
				nx := r.kxHi - r.kxLo + 1
				// The first tap of the run's first pixel (channel 0, kyLo,
				// kxLo) and the last tap of its last pixel (channel InC-1,
				// kyHi, kxHi) bound the slices handed to convRun, so a
				// wrong tap range panics here instead of the assembly
				// reading past the tensor.
				var xs []float32
				var wFirst, wEnd int
				if ny > 0 && nx > 0 {
					ix0 := r.ox*c.Stride - c.Pad
					xFirst := xB + (iy0+kyLo*d)*w + ix0 + r.kxLo*d
					xLast := xB + lastC*hw + (iy0+kyHi*d)*w + ix0 + r.kxHi*d + (r.n-1)*c.Stride
					xs = xd[xFirst : xLast+1]
					wFirst = (kyLo*k + r.kxLo) * convLanes
					wEnd = ((lastC*k+kyHi)*k + r.kxHi + 1) * convLanes
				}
				convRun(res[(r.ox-chunk)*convLanes:], (*[convLanes]float32)(block), block[convLanes+wFirst:convLanes+wEnd], xs,
					r.n, c.Stride, c.InC, ny, nx, hw, d*w, d, k*k*convLanes, k*convLanes)
			}
			finishRun(od[outRow+oc0*ohw+chunk:], ohw, res[:], ow-chunk, live, epi)
		}
	}
}

// finishRun stores the first n pixel-major results of run (see storeRun),
// passing them through the BatchNorm→ReLU epilogue first when epi is
// non-nil.
func finishRun(od []float32, ohw int, run []float32, n, live int, epi *[epilogueLen]float32) {
	if epi != nil {
		bnReLU(run[:n*convLanes], epi)
	}
	storeRun(od, ohw, run, n, live)
}

// storeRun copies the first live lanes of n pixel-major results into
// channel-major output: lane l's n values go to od[l*ohw:][:n], one
// contiguous row per output channel, for 1 <= live <= convLanes. Where the
// CPU has AVX (cpu.Use), storeRunAVX transposes the pixels up to the last
// multiple of eight and storeRunGo copies the rest; it only copies, so
// either way the rows hold the same bits.
func storeRun(od []float32, ohw int, run []float32, n, live int) {
	done := 0
	if cpu.Use.AVX && n >= 8 {
		done = n &^ 7
		_ = od[(live-1)*ohw+done-1] // the last cell storeRunAVX writes
		_ = run[done*convLanes-1]
		storeRunAVX(od, ohw, run, done, live)
	}
	storeRunGo(od[done:], ohw, run[done*convLanes:], n-done, live)
}

// storeRunGo is the portable body of storeRun. It stays out of line:
// inlined into Forward's row loop, its loop counter lives on the stack,
// and the copy runs about half as fast.
//
//go:noinline
func storeRunGo(od []float32, ohw int, run []float32, n, live int) {
	for l := 0; l < live; l++ {
		dst, j := od[l*ohw:][:n], l
		for i := range dst {
			dst[i] = run[j]
			j += convLanes
		}
	}
}

// convRun fills out[p*convLanes:(p+1)*convLanes], for each of the np output
// pixels p of a run, with the convLanes biases b plus the taps of pixel p:
// for nc channels × ny rows × nx columns, tap (ci, y, t) adds the convLanes
// weights w[ci*wc + y*wy + t*convLanes:] times the sample x[ci*xc + y*xy +
// t*xx + p*px]. With AVX-512 it computes eight pixels per weight load,
// with AVX four; otherwise convTapsGo computes one pixel at a time.
func convRun(out []float32, b *[convLanes]float32, w, x []float32, np, px, nc, ny, nx, xc, xy, xx, wc, wy int) {
	out = out[:np*convLanes]
	if cpu.Use.AVX512 {
		convRunAVX512(out, b, w, x, np, px, nc, ny, nx, xc, xy, xx, wc, wy)
		return
	}
	if cpu.Use.AVX {
		convRunAVX(out, b, w, x, np, px, nc, ny, nx, xc, xy, xx, wc, wy)
		return
	}
	for p := 0; p < np; p++ {
		acc := (*[convLanes]float32)(out[p*convLanes:])
		*acc = *b
		if nc > 0 && ny > 0 && nx > 0 {
			convTapsGo(acc, w, x[p*px:], nc, ny, nx, xc, xy, xx, wc, wy)
		}
	}
}

// convTapsGo is the portable body of convRun for one pixel. For nc channels
// × ny rows × nx columns of taps it adds w[tap lanes] × x[tap] to the
// convLanes accumulators, where tap (ci, y, t) reads x[ci*xc + y*xy + t*xx]
// and the convLanes weights from w[ci*wc + y*wy + t*convLanes]. Each product
// is rounded to float32 before the add: the explicit conversion forbids the
// compiler from fusing the multiply-add (arm64 would emit FMADDS), which
// would break byte parity.
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
