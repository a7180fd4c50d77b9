package nn

import (
	"math/rand"
	"testing"

	"safeland/internal/cpu"
)

// convRefForward is the seed implementation of Conv2D.Forward — the naive
// six-deep loop with per-element bounds checks — kept as the bit-exactness
// oracle for the lane-vectorised kernel. The float32 conversion of each
// product only forbids fusing it into the add (arm64 would emit FMADDS);
// on amd64 it compiles to the seed's MULSS+ADDSS.
func convRefForward(c *Conv2D, x *Tensor) *Tensor {
	n, _, h, w := x.Dims4()
	oh, ow := c.OutSize(h, w)
	out := NewTensor(n, c.OutC, oh, ow)
	wdat := c.W.Value.Data
	bdat := c.B.Value.Data
	for bi := 0; bi < n; bi++ {
		for oc := 0; oc < c.OutC; oc++ {
			bias := bdat[oc]
			for oy := 0; oy < oh; oy++ {
				outRow := out.Data[((bi*c.OutC+oc)*oh+oy)*ow : ((bi*c.OutC+oc)*oh+oy+1)*ow]
				for ox := 0; ox < ow; ox++ {
					sum := bias
					for icc := 0; icc < c.InC; icc++ {
						wBase := ((oc*c.InC + icc) * c.K) * c.K
						xBase := (bi*c.InC + icc) * h * w
						for ky := 0; ky < c.K; ky++ {
							iy := oy*c.Stride - c.Pad + ky*c.Dilation
							if iy < 0 || iy >= h {
								continue
							}
							xRow := xBase + iy*w
							wRow := wBase + ky*c.K
							for kx := 0; kx < c.K; kx++ {
								ix := ox*c.Stride - c.Pad + kx*c.Dilation
								if ix < 0 || ix >= w {
									continue
								}
								sum += float32(wdat[wRow+kx] * x.Data[xRow+ix])
							}
						}
					}
					outRow[ox] = sum
				}
			}
		}
	}
	return out
}

// convRefBackward is the seed gradient pass: naive dB/dW accumulation and
// the checked dX gather, in the reference accumulation order.
func convRefBackward(c *Conv2D, x, dout *Tensor) (dx *Tensor, dW, dB []float32) {
	n, _, h, w := x.Dims4()
	_, _, oh, ow := dout.Dims4()
	dx = x.ZerosLike()
	dW = make([]float32, len(c.W.Value.Data))
	dB = make([]float32, c.OutC)
	wdat := c.W.Value.Data

	for oc := 0; oc < c.OutC; oc++ {
		var db float32
		for bi := 0; bi < n; bi++ {
			base := (bi*c.OutC + oc) * oh * ow
			for i := 0; i < oh*ow; i++ {
				db += dout.Data[base+i]
			}
		}
		dB[oc] += db
		for icc := 0; icc < c.InC; icc++ {
			for ky := 0; ky < c.K; ky++ {
				for kx := 0; kx < c.K; kx++ {
					var dw float32
					for bi := 0; bi < n; bi++ {
						doutBase := (bi*c.OutC + oc) * oh * ow
						xBase := (bi*c.InC + icc) * h * w
						for oy := 0; oy < oh; oy++ {
							iy := oy*c.Stride - c.Pad + ky*c.Dilation
							if iy < 0 || iy >= h {
								continue
							}
							dRow := doutBase + oy*ow
							xRow := xBase + iy*w
							for ox := 0; ox < ow; ox++ {
								ix := ox*c.Stride - c.Pad + kx*c.Dilation
								if ix < 0 || ix >= w {
									continue
								}
								dw += dout.Data[dRow+ox] * x.Data[xRow+ix]
							}
						}
					}
					dW[((oc*c.InC+icc)*c.K+ky)*c.K+kx] += dw
				}
			}
		}
	}

	for bi := 0; bi < n; bi++ {
		for icc := 0; icc < c.InC; icc++ {
			dxBase := (bi*c.InC + icc) * h * w
			for iy := 0; iy < h; iy++ {
				for ix := 0; ix < w; ix++ {
					var acc float32
					for ky := 0; ky < c.K; ky++ {
						ny := iy + c.Pad - ky*c.Dilation
						if ny < 0 || ny%c.Stride != 0 {
							continue
						}
						oy := ny / c.Stride
						if oy >= oh {
							continue
						}
						for kx := 0; kx < c.K; kx++ {
							nx := ix + c.Pad - kx*c.Dilation
							if nx < 0 || nx%c.Stride != 0 {
								continue
							}
							ox := nx / c.Stride
							if ox >= ow {
								continue
							}
							for oc := 0; oc < c.OutC; oc++ {
								acc += wdat[((oc*c.InC+icc)*c.K+ky)*c.K+kx] *
									dout.Data[((bi*c.OutC+oc)*oh+oy)*ow+ox]
							}
						}
					}
					dx.Data[dxBase+iy*w+ix] = acc
				}
			}
		}
	}
	return dx, dW, dB
}

// convCase builds a conv and a random input that produce a positive output
// size, or ok=false when the geometry is degenerate.
func convCase(t testing.TB, inC, outC, k, stride, pad, dil, n, h, w int, seed int64) (*Conv2D, *Tensor, bool) {
	t.Helper()
	if k < 1 || stride < 1 || dil < 1 || pad < 0 || h < 1 || w < 1 {
		return nil, nil, false
	}
	rng := rand.New(rand.NewSource(seed))
	c := NewConv2D("c", inC, outC, k, stride, pad, dil, rng)
	if oh, ow := c.OutSize(h, w); oh <= 0 || ow <= 0 {
		return nil, nil, false
	}
	x := randomInput([]int{n, inC, h, w}, seed+1)
	return c, x, true
}

// forEachKernel calls f once per set of kernel bodies this CPU can run —
// the AVX bodies (the conv kernel, the fused epilogue, the softmax and the
// dropout mask) where the CPU has them, then the portable ones — with
// cpu.Use set to select them, and restores cpu.Use afterwards.
func forEachKernel(f func(kernel string)) {
	defer func(saved cpu.Features) { cpu.Use = saved }(cpu.Use)
	if cpu.Detected != (cpu.Features{}) {
		cpu.Use = cpu.Detected
		f("avx")
	}
	cpu.Use = cpu.Features{}
	f("portable")
}

func assertSameBits(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d = %v, reference %v", name, i, got[i], want[i])
		}
	}
}

// TestConvForwardMatchesReference pins Forward bit-identical to the naive
// reference over a stride/pad/dilation sweep with randomized spatial sizes —
// including shapes whose taps mostly fall outside the input — and over the
// MSDnet serving geometries, whose channel counts fill partial and second
// convLanes blocks. Every case runs on both convRun bodies (forEachKernel),
// so the portable fallback is checked on AVX machines too.
func TestConvForwardMatchesReference(t *testing.T) {
	cases := []struct{ k, stride, pad, dil int }{
		{1, 1, 0, 1}, {1, 1, 2, 1}, {2, 1, 1, 1}, {3, 1, 0, 1},
		{3, 1, 1, 1}, {3, 1, 2, 2}, {3, 1, 4, 4}, {3, 2, 1, 1},
		{3, 2, 2, 2}, {3, 3, 1, 1}, {4, 2, 3, 3}, {5, 1, 2, 1},
		{5, 2, 4, 2}, {5, 1, 6, 3}, {3, 1, 5, 1},
	}
	rng := rand.New(rand.NewSource(20240501))
	for _, tc := range cases {
		for trial := 0; trial < 4; trial++ {
			h, w := 1+rng.Intn(24), 1+rng.Intn(24)
			n := 1 + rng.Intn(2)
			seed := rng.Int63()
			c, x, ok := convCase(t, 1+rng.Intn(3), 1+rng.Intn(4), tc.k, tc.stride, tc.pad, tc.dil, n, h, w, seed)
			if !ok {
				continue
			}
			want := convRefForward(c, x)
			t.Run("", func(t *testing.T) {
				forEachKernel(func(kernel string) {
					got := c.Forward(x, false)
					if !got.SameShape(want) {
						t.Fatalf("k=%d s=%d p=%d d=%d h=%d w=%d: shape %v vs %v",
							tc.k, tc.stride, tc.pad, tc.dil, h, w, got.Shape, want.Shape)
					}
					assertSameBits(t, kernel+" forward", got.Data, want.Data)
				})
			})
		}
	}

	// The convolutions segment.New builds (default config), at the 192 px
	// frame and the 24 px monitor crop: the stride-2 stem, the three
	// dilated branches on the half-resolution trunk, and the 1×1 head.
	serving := []struct {
		name                                 string
		inC, outC, k, stride, pad, dil, h, w int
	}{
		{"stem_192", 3, 20, 3, 2, 1, 1, 192, 192},
		{"stem_24", 3, 20, 3, 2, 1, 1, 24, 24},
		{"branch_d1_96", 20, 14, 3, 1, 1, 1, 96, 96},
		{"branch_d2_96", 20, 14, 3, 1, 2, 2, 96, 96},
		{"branch_d4_96", 20, 14, 3, 1, 4, 4, 96, 96},
		{"branch_d1_12", 20, 14, 3, 1, 1, 1, 12, 12},
		{"branch_d2_12", 20, 14, 3, 1, 2, 2, 12, 12},
		{"branch_d4_12", 20, 14, 3, 1, 4, 4, 12, 12},
		{"head_96", 42, 8, 1, 1, 0, 1, 96, 96},
		{"head_12", 42, 8, 1, 1, 0, 1, 12, 12},
	}
	for i, tc := range serving {
		t.Run(tc.name, func(t *testing.T) {
			c, x, ok := convCase(t, tc.inC, tc.outC, tc.k, tc.stride, tc.pad, tc.dil, 1, tc.h, tc.w, int64(300+i))
			if !ok {
				t.Fatal("degenerate geometry")
			}
			want := convRefForward(c, x)
			forEachKernel(func(kernel string) {
				assertSameBits(t, kernel+" forward", c.Forward(x, false).Data, want.Data)
			})
		})
	}
}

// TestConvBackwardMatchesReference pins the hoisted dW/dB/dX gathers
// bit-identical to the naive reference gradients.
func TestConvBackwardMatchesReference(t *testing.T) {
	cases := []struct{ k, stride, pad, dil, h, w int }{
		{3, 1, 1, 1, 9, 11}, {3, 1, 2, 2, 12, 8}, {3, 2, 1, 1, 10, 10},
		{3, 2, 2, 2, 11, 9}, {1, 1, 0, 1, 6, 6}, {5, 1, 2, 1, 13, 7},
		{5, 2, 4, 2, 14, 14}, {2, 1, 1, 1, 7, 9}, {4, 3, 3, 2, 15, 12},
	}
	for i, tc := range cases {
		c, x, ok := convCase(t, 2, 3, tc.k, tc.stride, tc.pad, tc.dil, 2, tc.h, tc.w, int64(1000+i))
		if !ok {
			t.Fatalf("case %d degenerate", i)
		}
		out := c.Forward(x, true)
		dout := out.ZerosLike()
		rng := rand.New(rand.NewSource(int64(2000 + i)))
		for j := range dout.Data {
			dout.Data[j] = rng.Float32()*2 - 1
		}
		dx := c.Backward(dout)
		wantDx, wantDW, wantDB := convRefBackward(c, x, dout)
		assertSameBits(t, "dX", dx.Data, wantDx.Data)
		assertSameBits(t, "dW", c.W.Grad.Data, wantDW)
		assertSameBits(t, "dB", c.B.Grad.Data, wantDB)
	}
}

// FuzzConvForwardMatchesReference fuzzes the geometry space — kernel,
// stride, padding, dilation, spatial size, 1-24 input and 1-40 output
// channels (up to three convLanes blocks, the last one partial) and a batch
// of 1-3; every valid shape must match the reference bit-for-bit on both
// convRun bodies.
func FuzzConvForwardMatchesReference(f *testing.F) {
	f.Add(uint8(3), uint8(1), uint8(1), uint8(1), uint8(8), uint8(8), uint8(1), uint8(1), uint8(0), int64(1))
	f.Add(uint8(3), uint8(2), uint8(2), uint8(2), uint8(16), uint8(9), uint8(19), uint8(13), uint8(1), int64(2))
	f.Add(uint8(5), uint8(1), uint8(4), uint8(3), uint8(12), uint8(20), uint8(2), uint8(15), uint8(2), int64(3))
	f.Add(uint8(1), uint8(3), uint8(0), uint8(1), uint8(5), uint8(5), uint8(41), uint8(7), uint8(0), int64(4))
	f.Add(uint8(4), uint8(2), uint8(5), uint8(2), uint8(7), uint8(15), uint8(23), uint8(39), uint8(1), int64(5))
	f.Fuzz(func(t *testing.T, k, stride, pad, dil, h, w, inC, outC, n uint8, seed int64) {
		c, x, ok := convCase(t, 1+int(inC%24), 1+int(outC%40), int(k%6), 1+int(stride%3), int(pad%7), 1+int(dil%4),
			1+int(n%3), 1+int(h%20), 1+int(w%20), seed)
		if !ok {
			t.Skip("degenerate geometry")
		}
		want := convRefForward(c, x)
		forEachKernel(func(kernel string) {
			got := c.Forward(x, false)
			for i := range got.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("%s: k=%d s=%d p=%d d=%d %d→%d n=%d %dx%d: element %d = %v, reference %v",
						kernel, c.K, c.Stride, c.Pad, c.Dilation, c.InC, c.OutC, x.Shape[0], x.Shape[2], x.Shape[3],
						i, got.Data[i], want.Data[i])
				}
			}
		})
	})
}
