package nn

import (
	"math"
	"math/rand"
	"testing"
)

// streamRef is the unrecorded dropout a Dropout's decision record must
// reproduce: a fresh rand.Rand per seed, one Float64 per decision, and a
// unit kept when the draw is >= P.
type streamRef struct{ rng *rand.Rand }

func newStreamRef(seed int64) *streamRef {
	return &streamRef{rng: rand.New(rand.NewSource(seed))}
}

// forwardMatchesStream runs an AlwaysOn d over n units (a training forward
// when train is set) and checks every output bit and every Backward
// gradient against the reference stream's next n decisions, which it
// returns. A dropped unit must be +0, whatever the input's sign.
func forwardMatchesStream(t testing.TB, d *Dropout, ref *streamRef, n int, train bool, inputSeed int64) []bool {
	t.Helper()
	x := randomInput([]int{1, 1, 1, n}, inputSeed)
	out := d.Forward(x, train)
	ones := NewTensor(1, 1, 1, n)
	ones.Fill(1)
	dx := d.Backward(ones)
	scale := float32(1 / (1 - d.P))
	keep := make([]bool, n)
	for i, v := range x.Data {
		// P = 0 bypasses the layer: nothing is drawn, everything is kept.
		keep[i] = d.P == 0 || ref.rng.Float64() >= d.P
		var want, wantDx float32
		if keep[i] {
			want, wantDx = v*scale, scale
		}
		if math.Float32bits(out.Data[i]) != math.Float32bits(want) {
			t.Fatalf("P=%v n=%d train=%v: unit %d = %v, stream says %v (keep %v)", d.P, n, train, i, out.Data[i], want, keep[i])
		}
		if math.Float32bits(dx.Data[i]) != math.Float32bits(wantDx) {
			t.Fatalf("P=%v n=%d train=%v: gradient %d = %v, want %v (keep %v)", d.P, n, train, i, dx.Data[i], wantDx, keep[i])
		}
	}
	return keep
}

// TestDropoutRecordMatchesStream pins the decision record against the
// stream it stands in for: rewinding, extending past the recorded end,
// switching seed, changing P, a training forward between two reseeds and
// AlwaysOn inference with no Reseed all decide exactly what a layer that
// redraws rand.New(rand.NewSource(seed)) on every Reseed would.
func TestDropoutRecordMatchesStream(t *testing.T) {
	d := NewDropout(0.5, 1)
	d.Mode = AlwaysOn
	ref := newStreamRef(1)

	// No Reseed yet: fresh draws from the constructor's stream, so
	// consecutive calls differ.
	a := forwardMatchesStream(t, d, ref, 64, false, 1)
	b := forwardMatchesStream(t, d, ref, 64, false, 2)
	same := true
	for i := range a {
		same = same && a[i] == b[i]
	}
	if same {
		t.Fatal("consecutive unseeded AlwaysOn forwards drew the same mask")
	}

	d.Reseed(42)
	ref = newStreamRef(42)
	forwardMatchesStream(t, d, ref, 100, false, 3)
	forwardMatchesStream(t, d, ref, 50, false, 4)
	if len(d.keep) != 150 {
		t.Fatalf("record holds %d decisions after 150 draws", len(d.keep))
	}

	// Rewind: the same seed and P replay the record without redrawing.
	d.Reseed(42)
	ref = newStreamRef(42)
	forwardMatchesStream(t, d, ref, 100, false, 5)
	if len(d.keep) != 150 {
		t.Fatalf("replay grew the record to %d decisions", len(d.keep))
	}
	// Extension: 50 replayed decisions, then 70 drawn past the end.
	forwardMatchesStream(t, d, ref, 120, false, 6)
	if len(d.keep) != 220 {
		t.Fatalf("extension left %d decisions, want 220", len(d.keep))
	}
	d.Reseed(42)
	ref = newStreamRef(42)
	forwardMatchesStream(t, d, ref, 220, false, 7)

	// A different seed restarts the record, and so does the first again.
	d.Reseed(7)
	ref = newStreamRef(7)
	forwardMatchesStream(t, d, ref, 80, false, 8)
	d.Reseed(42)
	ref = newStreamRef(42)
	forwardMatchesStream(t, d, ref, 90, false, 9)

	// A changed P mid-record continues the stream at the cursor under the
	// new P; a Reseed under a changed P restarts the record, never rewinds
	// one recorded under the old P.
	d.Reseed(42)
	ref = newStreamRef(42)
	forwardMatchesStream(t, d, ref, 30, false, 10)
	d.P = 0.3
	forwardMatchesStream(t, d, ref, 60, false, 11)
	d.Reseed(42)
	ref = newStreamRef(42)
	forwardMatchesStream(t, d, ref, 100, false, 12)
	d.P = 0.25
	d.Reseed(42)
	ref = newStreamRef(42)
	forwardMatchesStream(t, d, ref, 100, false, 17)
	if !d.recording || d.recP != d.P {
		t.Fatal("a Reseed under a changed P did not restart the record")
	}

	// A training forward between two reseeds draws from the stream's
	// position and drops the record, which would otherwise grow with every
	// training step; the next Reseed starts over.
	d.Reseed(42)
	ref = newStreamRef(42)
	forwardMatchesStream(t, d, ref, 40, false, 13)
	forwardMatchesStream(t, d, ref, 50, true, 14)
	if d.recording {
		t.Fatal("a training forward kept the record")
	}
	forwardMatchesStream(t, d, ref, 20, false, 15)
	d.Reseed(42)
	ref = newStreamRef(42)
	forwardMatchesStream(t, d, ref, 110, false, 16)
}

// FuzzDropoutRecordMatchesStream decodes its input into a sequence of
// reseed (one of three seeds), forward and set-P ops on one AlwaysOn
// Dropout, and checks every forward against a reference that keeps a
// fresh rand.Rand per reseed. A forward is over n units, or over a sample
// batch of 2-12 samples of n units each (Tensor.Dims5), inference or
// training.
func FuzzDropoutRecordMatchesStream(f *testing.F) {
	f.Add([]byte{0, 0, 1, 40, 0, 0, 1, 60})
	f.Add([]byte{0, 1, 1, 90, 4, 20, 0, 1, 1, 120})
	f.Add([]byte{1, 10, 0, 2, 1, 30, 2, 1, 1, 30, 0, 2, 1, 200})
	f.Add([]byte{0, 0, 1, 10, 2, 0, 1, 10, 2, 2, 0, 0, 1, 50})
	f.Add([]byte{0, 0, 103, 29, 0, 0, 103, 29, 103, 30, 0, 0, 103, 29, 7, 29})
	f.Add([]byte{0, 1, 7, 40, 1, 8, 0, 1, 55, 40, 2, 1, 19, 40, 0, 1, 55, 40})
	seeds := [3]int64{42, 7, -3}
	ps := [4]float64{0.5, 0.25, 0, 0.9}
	f.Fuzz(func(t *testing.T, ops []byte) {
		d := NewDropout(0.5, 11)
		d.Mode = AlwaysOn
		ref := newStreamRef(11)
		for i := 0; i+1 < len(ops) && i < 128; i += 2 {
			op, arg := ops[i], int(ops[i+1])
			switch op % 3 {
			case 0:
				seed := seeds[arg%len(seeds)]
				d.Reseed(seed)
				ref = newStreamRef(seed)
			case 1:
				if train := op/3%2 == 1; op/6%2 == 0 {
					forwardMatchesStream(t, d, ref, 1+arg, train, int64(i))
				} else {
					forwardBatchMatchesStream(t, d, ref, 1+arg, 2+int(op/12)%11, train, int64(i))
				}
			case 2:
				d.P = ps[arg%len(ps)]
			}
		}
	})
}
