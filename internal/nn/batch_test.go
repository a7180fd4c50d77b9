package nn

import (
	"math"
	"math/rand"
	"testing"
)

// sampleOf returns sample s of the sample batch x (Tensor.Dims5) as a 4-D
// tensor.
func sampleOf(x *Tensor, s int) *Tensor {
	n, c, h, w, samples := x.Dims5()
	out := NewTensor(n, c, h, w)
	for i := range out.Data {
		out.Data[i] = x.Data[i*samples+s]
	}
	return out
}

// TestReplicateLayout pins the sample-minor layout: element (n, c, y, x,
// s) of the batch is at (((n*C + c)*H + y)*W + x)*S + s and holds x's
// element (n, c, y, x) for every s, and Dims4 refuses the batch.
func TestReplicateLayout(t *testing.T) {
	x := randomInput([]int{2, 3, 4, 5}, 1)
	b := Replicate(x, 7, NewScratch())
	if n, c, h, w, s := b.Dims5(); n != 2 || c != 3 || h != 4 || w != 5 || s != 7 {
		t.Fatalf("batch dims %v", b.Shape)
	}
	for s := 0; s < 7; s++ {
		assertSameBits(t, "sample", sampleOf(b, s).Data, x.Data)
	}
	if got := b.Data[(((1*3+2)*4+3)*5+4)*7+6]; got != x.At4(1, 2, 3, 4) {
		t.Fatalf("element (1,2,3,4,6) = %v, want %v", got, x.At4(1, 2, 3, 4))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Dims4 accepted a sample batch")
		}
	}()
	b.Dims4()
}

// TestConvForwardBatchMatchesReference runs Forward on sample batches of
// 2-12 samples over the stride/pad/dilation sweep of
// TestConvForwardMatchesReference, strided convs included (one call per
// column), and on the crop trunk's branch geometries: every sample of the
// output must be the naive reference's output for that sample alone, on
// every convRun body the CPU has.
func TestConvForwardBatchMatchesReference(t *testing.T) {
	cases := []struct{ k, stride, pad, dil int }{
		{1, 1, 0, 1}, {3, 1, 1, 1}, {3, 1, 2, 2}, {3, 1, 4, 4},
		{3, 2, 1, 1}, {3, 3, 1, 1}, {4, 2, 3, 3}, {5, 1, 6, 3},
	}
	rng := rand.New(rand.NewSource(20261020))
	for _, tc := range cases {
		for trial := 0; trial < 4; trial++ {
			h, w := 1+rng.Intn(14), 1+rng.Intn(14)
			samples := 2 + rng.Intn(11)
			c, x4, ok := convCase(t, 1+rng.Intn(3), 1+rng.Intn(20), tc.k, tc.stride, tc.pad, tc.dil, 1+rng.Intn(2), h, w, rng.Int63())
			if !ok {
				continue
			}
			n, ic := x4.Shape[0], x4.Shape[1]
			x := randomInput([]int{n, ic, h, w, samples}, rng.Int63())
			forEachKernel(func(kernel string) {
				got := c.Forward(x, false)
				for s := 0; s < samples; s++ {
					assertSameBits(t, kernel+" batch sample", sampleOf(got, s).Data, convRefForward(c, sampleOf(x, s)).Data)
				}
			})
		}
	}
	for _, d := range []int{1, 2, 4} {
		c, _, _ := convCase(t, 20, 14, 3, 1, d, d, 1, 12, 12, int64(d))
		x := randomInput([]int{1, 20, 12, 12, 10}, int64(10+d))
		forEachKernel(func(kernel string) {
			got := c.Forward(x, false)
			for s := 0; s < 10; s++ {
				assertSameBits(t, kernel+" crop trunk sample", sampleOf(got, s).Data, convRefForward(c, sampleOf(x, s)).Data)
			}
		})
	}
}

// TestSampleBatchMatchesPerSample is the Monte-Carlo batch's parity at the
// network level: random MSDnet-shaped networks (seeded batch norms,
// strided and unstrided stems, fused and unfused branches), AlwaysOn
// dropout reseeded before each run, with the trailing upsample split off.
// One pass over a batch of S replicated inputs, through Net and through
// the frozen network, must give every sample the bits of the s-th of S
// passes over the input alone through a fresh Net — twice, the second
// replaying the decision record — on every conv body the CPU has.
func TestSampleBatchMatchesPerSample(t *testing.T) {
	rng := rand.New(rand.NewSource(20261021))
	for trial := 0; trial < 40; trial++ {
		s := randomShape(rng)
		samples := 2 + rng.Intn(11)
		x := specialInput(rng, []float64{0, 0.01}[trial%2], 1+rng.Intn(2), 3, 1+rng.Intn(16), 1+rng.Intn(16))
		forEachKernel(func(kernel string) {
			ref := s.build()
			SetDropoutMode(ref, AlwaysOn)
			ReseedDropout(ref, 77)
			refBody, _, _ := SplitTrailingUpsample(ref)
			want := make([]*Tensor, samples)
			for j := range want {
				want[j] = refBody.Forward(x, false).Clone()
			}
			for _, frozen := range []bool{false, true} {
				var net Layer = s.build()
				if frozen {
					net = NewFrozenNet(net)
				}
				SetDropoutMode(net, AlwaysOn)
				body, _, _ := SplitTrailingUpsample(net)
				for pass := 0; pass < 2; pass++ {
					ReseedDropout(net, 77)
					got := body.Forward(Replicate(x, samples, nil), false)
					for j := range want {
						if i := sameBitsOrNaN(sampleOf(got, j).Data, want[j].Data); i >= 0 {
							t.Fatalf("%s, frozen %v, pass %d, %+v, input %v, %d samples: sample %d element %d = %v, per-sample pass %v",
								kernel, frozen, pass, s, x.Shape, samples, j, i, sampleOf(got, j).Data[i], want[j].Data[i])
						}
					}
				}
			}
		})
	}
}

// forwardBatchMatchesStream runs an AlwaysOn d over a batch of s samples
// of n units (a training forward when train is set) and checks every
// output bit and every Backward gradient against the reference stream's
// next n·s decisions: unit i of sample j takes decision j·n + i, as the
// j-th of s forwards over n units would.
func forwardBatchMatchesStream(t testing.TB, d *Dropout, ref *streamRef, n, s int, train bool, inputSeed int64) {
	t.Helper()
	x := randomInput([]int{1, 1, 1, n, s}, inputSeed)
	out := d.Forward(x, train)
	ones := NewTensor(1, 1, 1, n, s)
	ones.Fill(1)
	dx := d.Backward(ones)
	scale := float32(1 / (1 - d.P))
	keep := make([]bool, n*s)
	for k := range keep {
		// P = 0 bypasses the layer: nothing is drawn, everything is kept.
		keep[k] = d.P == 0 || ref.rng.Float64() >= d.P
	}
	for j := 0; j < s; j++ {
		for i := 0; i < n; i++ {
			e := i*s + j
			var want, wantDx float32
			if keep[j*n+i] {
				want, wantDx = x.Data[e]*scale, scale
			}
			if math.Float32bits(out.Data[e]) != math.Float32bits(want) {
				t.Fatalf("P=%v n=%d s=%d train=%v: unit %d of sample %d = %v, stream says %v", d.P, n, s, train, i, j, out.Data[e], want)
			}
			if math.Float32bits(dx.Data[e]) != math.Float32bits(wantDx) {
				t.Fatalf("P=%v n=%d s=%d train=%v: gradient of unit %d of sample %d = %v, want %v", d.P, n, s, train, i, j, dx.Data[e], wantDx)
			}
		}
	}
}

// TestDropoutViewRebuilds pins when a Dropout builds the sample-minor view
// of its decisions: once per record, cursor and (N, S), so a replayed
// batch — a reseed with the same seed and P — builds none, and a reseed
// with another seed or P, a training forward, or another N or S builds a
// new one. Every forward is checked against the stream.
func TestDropoutViewRebuilds(t *testing.T) {
	d := NewDropout(0.5, 1)
	d.Mode = AlwaysOn
	var ref *streamRef
	step := func(seed int64, n, s int, train bool, wantViews int) {
		t.Helper()
		d.Reseed(seed)
		ref = newStreamRef(seed)
		forwardBatchMatchesStream(t, d, ref, n, s, train, int64(d.views))
		if d.views != wantViews {
			t.Fatalf("seed %d, P %v, n=%d s=%d train=%v: %d views built, want %d", seed, d.P, n, s, train, d.views, wantViews)
		}
	}
	step(42, 30, 10, false, 1)
	step(42, 30, 10, false, 1) // a replay reuses the view
	step(42, 30, 10, false, 1)
	step(7, 30, 10, false, 2) // another seed
	step(7, 30, 10, false, 2)
	d.P = 0.3
	step(7, 30, 10, false, 3) // another P
	step(7, 30, 10, false, 3)
	step(7, 31, 10, false, 4) // another N
	step(7, 31, 10, false, 4)
	step(7, 31, 9, false, 5) // another S
	step(7, 31, 9, false, 5)
	step(7, 31, 9, true, 6) // a training forward draws afresh and drops the record
	step(7, 31, 9, false, 7)
	step(7, 31, 9, false, 7)

	// A second batch in one run is at another cursor: it builds its own
	// view, and the run's first batch, replayed, then builds its view
	// again.
	d.Reseed(7)
	ref = newStreamRef(7)
	forwardBatchMatchesStream(t, d, ref, 31, 9, false, 1)
	forwardBatchMatchesStream(t, d, ref, 31, 9, false, 2)
	if d.views != 8 {
		t.Fatalf("a batch at a new cursor built %d views in all, want 8", d.views)
	}
	step(7, 31, 9, false, 9)

	// 4-D forwards between reseeds never build a view.
	d.Reseed(7)
	ref = newStreamRef(7)
	forwardMatchesStream(t, d, ref, 31, false, 3)
	if d.views != 9 {
		t.Fatalf("a 4-D forward built a view (%d)", d.views)
	}
}

// TestReplayedBatchBuildsNoView pins the serving shape of the view: a
// Monte-Carlo batch through a network's two dropouts, reseeded with one
// seed per run as the monitor does, builds each layer's view on the first
// run only, and a replica that then sees another crop size rebuilds them
// once and keeps them again.
func TestReplayedBatchBuildsNoView(t *testing.T) {
	net := NewFrozenNet(miniMSDNet(3))
	SetDropoutMode(net, AlwaysOn)
	views := func() (n int) {
		Walk(net, func(l Layer) {
			if d, ok := l.(*Dropout); ok {
				n += d.views
			}
		})
		return n
	}
	body, _, _ := SplitTrailingUpsample(net)
	run := func(side int) {
		ReseedDropout(net, 5)
		body.Forward(Replicate(randomInput([]int{1, 3, side, side}, 1), 10, nil), false)
	}
	for i, tc := range []struct{ side, views int }{{12, 2}, {12, 2}, {12, 2}, {16, 4}, {16, 4}, {12, 6}, {12, 6}} {
		run(tc.side)
		if got := views(); got != tc.views {
			t.Fatalf("run %d (%d px): %d views built, want %d", i, tc.side, got, tc.views)
		}
	}
}
