package faults

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestNilInjectorNeverFires(t *testing.T) {
	var in *Injector
	for _, k := range Kinds() {
		if in.Fire(k, "shard0", 0) {
			t.Errorf("nil injector fired %s", k)
		}
	}
	if got := in.Schedule([]string{"a"}, 10); got != nil {
		t.Errorf("nil injector scheduled %v", got)
	}
	if in.Stall() != 0 || in.Seed() != 0 {
		t.Error("nil injector has non-zero config")
	}
}

func TestRateEndpoints(t *testing.T) {
	always := NewInjector(1, Rates{SelectorError: 1})
	never := NewInjector(1, Rates{})
	for f := 0; f < 50; f++ {
		if !always.Fire(SelectorError, "p", f) {
			t.Fatalf("rate 1 did not fire at frame %d", f)
		}
		if never.Fire(SelectorError, "p", f) {
			t.Fatalf("rate 0 fired at frame %d", f)
		}
		// A kind with rate 0 stays silent even when another kind fires.
		if always.Fire(ShardBlackout, "p", f) {
			t.Fatalf("unconfigured kind fired at frame %d", f)
		}
	}
}

// TestFireIsStateless pins the core determinism property: answers do not
// depend on query order, repetition, or interleaved queries about other
// points.
func TestFireIsStateless(t *testing.T) {
	in := NewInjector(42, Rates{SelectorError: 0.3, ReplicaStall: 0.2, ShardBlackout: 0.15})
	type q struct {
		k     Kind
		p     string
		f     int
		fired bool
	}
	var forward []q
	for f := 0; f < 40; f++ {
		for _, p := range []string{"shard0", "shard1", "uav-7"} {
			for _, k := range Kinds() {
				forward = append(forward, q{k, p, f, in.Fire(k, p, f)})
			}
		}
	}
	// Replay backwards, twice each, against a fresh injector.
	fresh := NewInjector(42, Rates{SelectorError: 0.3, ReplicaStall: 0.2, ShardBlackout: 0.15})
	for i := len(forward) - 1; i >= 0; i-- {
		for rep := 0; rep < 2; rep++ {
			if fresh.Fire(forward[i].k, forward[i].p, forward[i].f) != forward[i].fired {
				t.Fatalf("query %d changed answer on out-of-order replay", i)
			}
		}
	}
}

func TestRatesApproximateFrequency(t *testing.T) {
	const n = 20000
	in := NewInjector(7, Rates{SelectorError: 0.25})
	fired := 0
	for f := 0; f < n; f++ {
		if in.Fire(SelectorError, "p", f) {
			fired++
		}
	}
	got := float64(fired) / n
	if math.Abs(got-0.25) > 0.02 {
		t.Errorf("rate 0.25 fired at frequency %.4f", got)
	}
}

func TestSeedsDecorrelate(t *testing.T) {
	a := NewInjector(1, Rates{SelectorError: 0.5})
	b := NewInjector(2, Rates{SelectorError: 0.5})
	same := 0
	const n = 2000
	for f := 0; f < n; f++ {
		if a.Fire(SelectorError, "p", f) == b.Fire(SelectorError, "p", f) {
			same++
		}
	}
	if same == n {
		t.Error("two seeds produced identical fault sequences")
	}
}

func TestScheduleFaultComposesWithRates(t *testing.T) {
	in := NewInjector(3, Rates{}).ScheduleFault(ShardBlackout, "shard0", 1, 2, 3)
	for f := 0; f < 6; f++ {
		want := f >= 1 && f <= 3
		if got := in.Fire(ShardBlackout, "shard0", f); got != want {
			t.Errorf("frame %d: fired=%v, want %v", f, got, want)
		}
		if in.Fire(ShardBlackout, "shard1", f) {
			t.Errorf("frame %d: scheduled fault leaked to another point", f)
		}
		if in.Fire(SelectorError, "shard0", f) {
			t.Errorf("frame %d: scheduled fault leaked to another kind", f)
		}
	}
}

func TestScheduleEnumeratesExactlyWhatFires(t *testing.T) {
	in := NewInjector(11, Rates{SelectorError: 0.4, ShardBlackout: 0.3}).
		ScheduleFault(ReplicaStall, "shard1", 2)
	points := []string{"shard0", "shard1"}
	const frames = 25
	plan := in.Schedule(points, frames)
	want := map[Entry]bool{}
	for _, e := range plan {
		want[e] = true
	}
	for f := 0; f < frames; f++ {
		for _, p := range points {
			for _, k := range Kinds() {
				if in.Fire(k, p, f) != want[Entry{Frame: f, Point: p, Kind: k}] {
					t.Fatalf("schedule disagrees with Fire at (%s, %s, %d)", k, p, f)
				}
			}
		}
	}
	// The plan is already in canonical order.
	sorted := append([]Entry(nil), plan...)
	SortEntries(sorted)
	if !reflect.DeepEqual(plan, sorted) {
		t.Error("Schedule output not in canonical order")
	}
	if !strings.Contains(FormatSchedule(plan), "replica-stall@shard1") {
		t.Errorf("formatted schedule missing explicit entry:\n%s", FormatSchedule(plan))
	}
	if FormatSchedule(nil) != "  (no faults scheduled)\n" {
		t.Errorf("empty schedule rendering = %q", FormatSchedule(nil))
	}
}

func TestErrorClassification(t *testing.T) {
	in := NewInjector(5, Rates{})
	err := in.Errorf(ReplicaStall, "shard0", 4)
	fe := AsInjected(err)
	if fe == nil || fe.Kind != ReplicaStall || fe.Point != "shard0" || fe.Frame != 4 {
		t.Fatalf("AsInjected = %+v", fe)
	}
	if AsInjected(errors.New("plain")) != nil {
		t.Error("plain error classified as injected")
	}
	wrapped := fmt.Errorf("serving: %w", err)
	if AsInjected(wrapped) == nil {
		t.Error("wrapped injected error not classified")
	}
	if !ReplicaStall.Transient() || !SelectorError.Transient() {
		t.Error("attempt-scoped kinds must be transient")
	}
	if ShardBlackout.Transient() {
		t.Error("blackout must not be transient")
	}
}

func TestBackoffBoundedAndDeterministic(t *testing.T) {
	const base, max = time.Millisecond, 16 * time.Millisecond
	for attempt := 0; attempt < 8; attempt++ {
		d := Backoff(9, "uav-1", attempt, base, max)
		if d != Backoff(9, "uav-1", attempt, base, max) {
			t.Fatalf("attempt %d: backoff not deterministic", attempt)
		}
		if d > max {
			t.Fatalf("attempt %d: backoff %v exceeds cap %v", attempt, d, max)
		}
		lower := base << uint(attempt)
		if lower > max {
			lower = max
		}
		if d < lower && d < max {
			t.Fatalf("attempt %d: backoff %v below exponential floor %v", attempt, d, lower)
		}
	}
	if Backoff(9, "k", 3, 0, max) != 0 {
		t.Error("zero base must disable backoff")
	}
	if Backoff(9, "uav-1", 2, base, max) == Backoff(9, "uav-2", 2, base, max) &&
		Backoff(9, "uav-1", 3, base, max) == Backoff(9, "uav-2", 3, base, max) &&
		Backoff(9, "uav-1", 1, base, max) == Backoff(9, "uav-2", 1, base, max) {
		t.Error("jitter does not decorrelate keys")
	}
}

// FuzzInjectorDeterminism is the chaos-reproducibility pin: for any seed,
// rates, point and frame window, two independently built injectors (one
// queried in reverse) produce the identical fault sequence, and the
// published Schedule matches the Fire answers entry for entry.
func FuzzInjectorDeterminism(f *testing.F) {
	f.Add(int64(1), 0.3, 0.2, 0.15, "shard0", uint8(20), uint8(3))
	f.Add(int64(-7), 1.0, 0.0, 0.9, "uav-0042", uint8(5), uint8(1))
	f.Add(int64(0), 0.0, 0.0, 0.0, "", uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, r1, r2, r3 float64, point string, frames, schedFrame uint8) {
		for _, r := range []float64{r1, r2, r3} {
			if math.IsNaN(r) || r < 0 || r > 1 {
				t.Skip()
			}
		}
		rates := Rates{SelectorError: r1, ReplicaStall: r2, ShardBlackout: r3}
		mk := func() *Injector {
			return NewInjector(seed, rates).ScheduleFault(ReplicaStall, point, int(schedFrame))
		}
		a, b := mk(), mk()
		n := int(frames) + 1
		seq := make([]bool, 0, n*len(Kinds()))
		for fr := 0; fr < n; fr++ {
			for _, k := range Kinds() {
				seq = append(seq, a.Fire(k, point, fr))
			}
		}
		i := len(seq) - 1
		for fr := n - 1; fr >= 0; fr-- {
			ks := Kinds()
			for j := len(ks) - 1; j >= 0; j-- {
				if b.Fire(ks[j], point, fr) != seq[i] {
					t.Fatalf("reverse-order replay diverged at frame %d kind %s", fr, ks[j])
				}
				i--
			}
		}
		if !a.Fire(ReplicaStall, point, int(schedFrame)) {
			t.Fatal("explicitly scheduled fault did not fire")
		}
		planned := map[Entry]bool{}
		for _, e := range a.Schedule([]string{point}, n) {
			planned[e] = true
		}
		idx := 0
		for fr := 0; fr < n; fr++ {
			for _, k := range Kinds() {
				if seq[idx] != planned[Entry{Frame: fr, Point: point, Kind: k}] {
					t.Fatalf("Schedule disagrees with Fire at frame %d kind %s", fr, k)
				}
				idx++
			}
		}
	})
}
