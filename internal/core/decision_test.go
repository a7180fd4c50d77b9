package core

import (
	"testing"

	"safeland/internal/monitor"
)

// TestDecisionModuleArbitration tables the Figure 2 arbiter's trial-budget
// behavior: every (budget, verdict sequence) combination must land on the
// right terminal state — confirm triggers landing execution, a rejection
// inside budget requests another candidate, and budget exhaustion (or
// running out of candidates) aborts to flight termination.
func TestDecisionModuleArbitration(t *testing.T) {
	reject := monitor.Verdict{Confirmed: false, FlaggedFraction: 0.4}
	confirm := monitor.Verdict{Confirmed: true, MaxScore: 0.05}

	cases := []struct {
		name   string
		budget int
		offers []monitor.Verdict
		// exhaust signals no further candidates after the offers.
		exhaust    bool
		want       DMState
		wantTrials int
	}{
		{"confirm on first trial", 4, []monitor.Verdict{confirm}, false, Landing, 1},
		{"retry then confirm", 4, []monitor.Verdict{reject, reject, confirm}, false, Landing, 3},
		{"confirm on last budgeted trial", 2, []monitor.Verdict{reject, confirm}, false, Landing, 2},
		{"abort when budget exhausted", 2, []monitor.Verdict{reject, reject}, false, Aborted, 2},
		{"single-trial budget aborts on reject", 1, []monitor.Verdict{reject}, false, Aborted, 1},
		{"confirm after abort is ignored", 1, []monitor.Verdict{reject, confirm}, false, Aborted, 1},
		{"reject after landing is ignored", 3, []monitor.Verdict{confirm, reject}, false, Landing, 1},
		{"no candidates aborts", 3, nil, true, Aborted, 0},
		{"candidates run out inside budget", 4, []monitor.Verdict{reject}, true, Aborted, 1},
		{"exhaustion after landing keeps landing", 4, []monitor.Verdict{confirm}, true, Landing, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dm := NewDecisionModule(tc.budget)
			var state DMState
			for _, v := range tc.offers {
				state = dm.Offer(v)
			}
			if tc.exhaust {
				state = dm.Exhausted()
			}
			if len(tc.offers) == 0 && !tc.exhaust {
				state = dm.State()
			}
			if state != tc.want || dm.State() != tc.want {
				t.Fatalf("state = %v (tracked %v), want %v", state, dm.State(), tc.want)
			}
			if dm.Trials() != tc.wantTrials {
				t.Errorf("trials = %d, want %d", dm.Trials(), tc.wantTrials)
			}
		})
	}
}

// TestDecisionModuleBudgetFloor pins the minimum-one-trial rule: a
// non-positive budget must not produce an arbiter that can never land.
func TestDecisionModuleBudgetFloor(t *testing.T) {
	for _, budget := range []int{0, -3} {
		dm := NewDecisionModule(budget)
		if dm.MaxTrials != 1 {
			t.Fatalf("budget %d: MaxTrials = %d, want 1", budget, dm.MaxTrials)
		}
		if st := dm.Offer(monitor.Verdict{Confirmed: true}); st != Landing {
			t.Fatalf("budget %d: confirmation did not land (%v)", budget, st)
		}
	}
}
