package main

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"safeland/internal/core"
	"safeland/internal/faults"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	if v, err := percentile(xs, 0.9, 10); err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90 with 10 samples beyond", v, err)
	}
	if _, err := percentile(xs[:99], 0.9, 10); err == nil {
		t.Fatal("p90 of 99 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(xs[:19], 0.5, 10); err == nil {
		t.Fatal("p50 of 19 samples has 9 beyond it and must be refused")
	}
	if v, err := percentile(xs[:20], 0.5, 10); err != nil || v != 90 {
		t.Fatalf("p50 of 81..100 = %v, %v; want 90", v, err)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{2, 1}, 0.75, 2.25},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// planFingerprint is everything a plan feeds the program, in comparable
// form: arrivals (with triggers), scene order, vehicles, checked frames and
// the published fault plan (transients and the fixed blackout window).
func planFingerprint(w workload, seed int64) []any {
	p := makePlan(w, seed, 16*time.Second)
	var faultPlan []faults.Entry
	if p.inj != nil {
		faultPlan = p.inj.Schedule(faultPoints(2), 32)
	}
	return []any{p.events, p.order, p.vehicles, p.checks, faultPlan}
}

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := planFingerprint(w, 1), planFingerprint(w, 1)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two different plans", w.name)
		}
		c := planFingerprint(w, 2)
		for i, what := range []string{"arrival schedule", "scene order", "vehicles", "checked frames", "fault plan"} {
			same := reflect.DeepEqual(a[i], c[i])
			// Parts a workload does not have are empty for every seed.
			empty := reflect.ValueOf(a[i]).Len() == 0
			if same && !empty {
				t.Errorf("%s: seeds 1 and 2 gave the same %s", w.name, what)
			}
		}
	}
	// The descent plan's triggers are part of its arrival schedule; make
	// sure they exist and move with the seed.
	descent, _ := lookupWorkload("descent")
	triggers := func(seed int64) []event {
		var out []event
		for _, ev := range makePlan(descent, seed, 16*time.Second).events {
			if ev.kind == evTrigger {
				out = append(out, ev)
			}
		}
		return out
	}
	if t1, t2 := triggers(1), triggers(2); len(t1) != triggered || reflect.DeepEqual(t1, t2) {
		t.Errorf("descent triggers: seed 1 %v, seed 2 %v", t1, t2)
	}
	if !reflect.DeepEqual(triggers(3), triggers(3)) {
		t.Error("descent triggers differ for the same seed")
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		// Two overlapping children cover [10, 50); a third runs past the
		// parent's end and only [90, 100) of it counts.
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "child", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 120},
		{ID: 5, Parent: 3, Name: "grandchild", Start: 25, End: 35},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"parent": 50, "child": 20 + 30 - 10, "late": 30, "grandchild": 10}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestHostSlowdownAveragesTheProbesInAnInterval(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	hs := hostSamples{
		{at: at(0), took: hostProbeRef},
		{at: at(10), took: 2 * hostProbeRef},
		{at: at(20), took: 4 * hostProbeRef},
		{at: at(30), took: hostProbeRef},
	}
	if got := hs.slowdown(); got != 2 {
		t.Errorf("slowdown over every sample = %v, want 2", got)
	}
	// [10 ms, 30 ms) holds the second and third samples, not the fourth.
	if got, ok := hs.slowdownIn(at(10), at(30)); !ok || got != 3 {
		t.Errorf("slowdown in [10, 30) ms = %v, %v; want 3", got, ok)
	}
	if _, ok := hs.slowdownIn(at(1), at(9)); ok {
		t.Error("an interval no probe started in has no slowdown")
	}
}

func TestContractViolation(t *testing.T) {
	confirmed := core.Result{Confirmed: true, State: core.Landing}
	confirmed.Trials = []core.Trial{{}}
	confirmed.Trials[0].Verdict.Confirmed = true
	for _, c := range []struct {
		name string
		s    served
		ok   bool
	}{
		{"monitored landing", served{res: confirmed}, true},
		{"monitored abort", served{res: core.Result{State: core.Aborted}}, true},
		{"error", served{err: errors.New("cancelled")}, true},
		{"degraded fallback", served{degraded: true, cause: "shard-blackout", res: core.Result{State: core.Degraded}}, true},
		{"degraded claiming a zone", served{degraded: true, cause: "x", res: core.Result{State: core.Degraded, Confirmed: true}}, false},
		{"degraded without cause", served{degraded: true, res: core.Result{State: core.Degraded}}, false},
		{"error marked degraded", served{err: errors.New("x"), degraded: true}, false},
		{"landing without verdict", served{res: core.Result{Confirmed: true, State: core.Landing}}, false},
		{"undecided", served{res: core.Result{State: core.Proposing}}, false},
	} {
		if got := contractViolation(c.s) == ""; got != c.ok {
			t.Errorf("%s: contract holds = %v, want %v", c.name, got, c.ok)
		}
	}
}

func TestJudgeAppliesBoundsAndPairRule(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, b := range base {
			out[i] = b + d
		}
		return out
	}
	for _, c := range []struct {
		name    string
		nw      []float64
		higher  bool
		verdict string
	}{
		{"same", shift(0), false, "no change"},
		{"faster", shift(-10), false, "gain"},
		{"slower beyond the bound", shift(20), false, "regression"},
		{"slower within the bound", shift(5), false, "no change"},
		{"higher is better", shift(10), true, "gain"},
	} {
		if _, v := judge(base, c.nw, c.higher, 0.1); v != c.verdict {
			t.Errorf("%s: %s, want %s", c.name, v, c.verdict)
		}
	}
	if _, v := judge(base[:3], shift(-10)[:3], false, 0.1); v != "no change" {
		t.Errorf("three pairs all won: %s, want no change (a gain needs %d pairs)", v, minGainPairs)
	}
	noisy := []float64{50, 150, 80, 120, 100, 60, 140, 90, 110, 100}
	if _, v := judge(noisy, noisy, false, 0.1); v != "unresolved" {
		t.Errorf("base spread wider than the bound: %s, want unresolved", v)
	}
	if _, v := judge(noisy, shift(-60), false, 0.1); v == "unresolved" {
		t.Error("every new run beats every base run: the result must not be unresolved")
	}
}
