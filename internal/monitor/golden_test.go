package monitor

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"safeland/internal/cpu"
	"safeland/internal/imaging"
	"safeland/internal/nn"
	"safeland/internal/segment"
)

// goldenDigests pins the bits the inference path computes for goldenModel
// on goldenFrame: any change to a layer, a kernel, the Monte-Carlo loop or
// the rule scan that moves a single output bit changes one of them. They
// were computed on the unfused path, full-resolution statistics and all,
// and must never be re-pinned to make a speed-up pass: an optimisation
// that changes them is not byte-identical.
var goldenDigests = map[string]uint64{
	"logits":           0xd054d4fdac9ce70c,
	"labels":           0x7f964350b88ad65,
	"stats/24":         0x4ce36c1e8470de94,
	"stats/25":         0x1edad4b133edb96c,
	"stats/64":         0xb50e8aa444990394,
	"verdict/24/rule0": 0x244c3abba517d12d,
	"verdict/24/rule1": 0x7bf3d7d6ba6fdfd9,
	"verdict/25/rule0": 0xdd4c9b82a37f3b42,
	"verdict/25/rule1": 0x143d7ea0cd4a3d17,
	"verdict/64/rule0": 0x200a7d630536bcb7,
	"verdict/64/rule1": 0x9cdb61592b64fa07,
}

// goldenRules are the rules the digest applies to each crop: the paper's,
// and a looser one whose verdicts flag only part of a crop.
var goldenRules = []Rule{
	DefaultRule(),
	{Tau: 0.3, Sigmas: 1, MaxFlaggedFraction: 0.5},
}

// goldenModel is the default MSDnet with fixed-seed weights whose
// batch-norm layers carry seeded, non-default statistics and affine
// parameters, so the normalisation is exercised rather than near identity.
func goldenModel() *segment.Model {
	cfg := segment.DefaultConfig()
	cfg.Seed = 17
	m := segment.New(cfg)
	rng := rand.New(rand.NewSource(23))
	nn.Walk(m.Net, func(l nn.Layer) {
		bn, ok := l.(*nn.BatchNorm2D)
		if !ok {
			return
		}
		for c := 0; c < bn.C; c++ {
			bn.RunningMean[c] = float32(rng.NormFloat64() * 0.3)
			bn.RunningVar[c] = float32(0.25 + rng.Float64())
			bn.Gamma.Value.Data[c] = float32(0.5 + rng.Float64())
			bn.Beta.Value.Data[c] = float32(rng.NormFloat64() * 0.2)
		}
	})
	return m
}

// goldenFrame is a 192 px frame of 12 px blocks of seeded colour plus
// per-pixel noise: structured enough that the label map and the verdicts
// vary across the frame.
func goldenFrame() *imaging.Image {
	const side, block = 192, 12
	rng := rand.New(rand.NewSource(29))
	base := make([]imaging.RGB, (side/block)*(side/block))
	for i := range base {
		base[i] = imaging.RGB{R: rng.Float32(), G: rng.Float32(), B: rng.Float32()}
	}
	img := imaging.NewImage(side, side)
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			b := base[(y/block)*(side/block)+x/block]
			img.Pix[y*side+x] = imaging.RGB{
				R: b.R + 0.2*(rng.Float32()-0.5),
				G: b.G + 0.2*(rng.Float32()-0.5),
				B: b.B + 0.2*(rng.Float32()-0.5),
			}
		}
	}
	return img
}

// digest hashes float32 bits and integers in order.
type digest struct{ buf []byte }

func (d *digest) u32(v uint32) {
	d.buf = append(d.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func (d *digest) floats(fs []float32) {
	for _, f := range fs {
		d.u32(math.Float32bits(f))
	}
}

func (d *digest) sum() uint64 {
	h := fnv.New64a()
	h.Write(d.buf)
	return h.Sum64()
}

// goldenRun computes every digest of goldenDigests on m, plus facts that
// show the digests cover varied outputs: the distinct labels of the frame
// and, per verdict, its flagged fraction.
func goldenRun(t *testing.T, m *segment.Model) (map[string]uint64, map[imaging.Class]bool, []float64) {
	t.Helper()
	ctx := context.Background()
	frame := goldenFrame()
	got := map[string]uint64{}

	logits, err := m.LogitsCtx(ctx, frame)
	if err != nil {
		t.Fatal(err)
	}
	var d digest
	for _, s := range logits.Shape {
		d.u32(uint32(s))
	}
	d.floats(logits.Data)
	got["logits"] = d.sum()

	labels, err := m.PredictCtx(ctx, frame)
	if err != nil {
		t.Fatal(err)
	}
	d = digest{}
	d.u32(uint32(labels.W))
	d.u32(uint32(labels.H))
	classes := map[imaging.Class]bool{}
	for _, c := range labels.Pix {
		d.u32(uint32(c))
		classes[c] = true
	}
	got["labels"] = d.sum()

	b := NewBayesian(m, 41)
	var fracs []float64
	for _, side := range []int{24, 25, 64} {
		crop := frame.Crop(60, 84, side, side)
		st, err := b.MCStatsCtx(ctx, crop)
		if err != nil {
			t.Fatal(err)
		}
		d = digest{}
		for _, s := range st.Mean.Shape {
			d.u32(uint32(s))
		}
		d.floats(st.Mean.Data)
		d.floats(st.Std.Data)
		got[fmt.Sprintf("stats/%d", side)] = d.sum()

		for ri, rule := range goldenRules {
			v, err := b.VerifyRegionCtx(ctx, crop, rule)
			if err != nil {
				t.Fatal(err)
			}
			d = digest{}
			if v.Confirmed {
				d.u32(1)
			} else {
				d.u32(0)
			}
			bits := math.Float64bits(v.FlaggedFraction)
			d.u32(uint32(bits))
			d.u32(uint32(bits >> 32))
			d.u32(math.Float32bits(v.MaxScore))
			d.u32(uint32(v.Flags.W))
			d.u32(uint32(v.Flags.H))
			d.floats(v.Flags.Pix)
			got[fmt.Sprintf("verdict/%d/rule%d", side, ri)] = d.sum()
			fracs = append(fracs, v.FlaggedFraction)
		}
	}
	return got, classes, fracs
}

// TestGoldenInferenceDigest pins the logits, the label map, the
// Monte-Carlo statistics and the verdicts of a fixed model to
// goldenDigests, on the trainable model and on a frozen clone, which runs
// the fused inference network, and on every set of kernel bodies the CPU
// can run, selected through cpu.Use: the vector bodies, then the portable
// ones. Every path must compute exactly those bits.
func TestGoldenInferenceDigest(t *testing.T) {
	m := goldenModel()
	clone, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	bodySets := []cpu.Features{{}}
	if cpu.Detected != (cpu.Features{}) {
		bodySets = []cpu.Features{cpu.Detected, {}}
	}
	defer func(saved cpu.Features) { cpu.Use = saved }(cpu.Use)
	for _, use := range bodySets {
		cpu.Use = use
		for _, tc := range []struct {
			name  string
			model *segment.Model
		}{{"trainable", m}, {"frozen clone", clone}} {
			name := fmt.Sprintf("bodies %+v, %s", use, tc.name)
			got, classes, fracs := goldenRun(t, tc.model)
			for digest, want := range goldenDigests {
				if got[digest] != want {
					t.Errorf("%s: digest %s = %#x, golden %#x", name, digest, got[digest], want)
				}
			}
			if len(classes) < 3 {
				t.Errorf("%s: label map holds %d classes; the frame no longer exercises the argmax", name, len(classes))
			}
			partial := false
			for _, f := range fracs {
				partial = partial || (f > 0 && f < 1)
			}
			if !partial {
				t.Errorf("%s: no verdict flags part of its crop (%v); the digests no longer exercise the rule", name, fracs)
			}
		}
	}
}
