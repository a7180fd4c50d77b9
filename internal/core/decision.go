package core

import (
	"fmt"

	"safeland/internal/monitor"
)

// DMState is the state of the Decision Module.
type DMState int

// Decision Module states.
const (
	// Proposing means the DM awaits the next candidate from the core
	// function.
	Proposing DMState = iota
	// Landing means a zone was confirmed and landing execution triggered.
	Landing
	// Aborted means no candidate could be confirmed within budget; the
	// flight must be terminated (parachute in place).
	Aborted
	// Degraded means the serving layer exhausted its fault budget and
	// answered with the fault-tolerant baseline zone instead of a verified
	// selection. The DecisionModule itself never enters this state — it is
	// produced above the pipeline (safeland degraded-mode serving) — and a
	// Degraded result never carries Confirmed: the monitor's refusal
	// semantics survive the fallback, the zone is best-effort geometry
	// exactly like the paper's fault-tolerant maneuver.
	Degraded
)

// String names the state.
func (s DMState) String() string {
	switch s {
	case Proposing:
		return "proposing"
	case Landing:
		return "landing"
	case Aborted:
		return "aborted"
	case Degraded:
		return "degraded-FT"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// DecisionModule is the paper's Figure 2 arbiter: it receives monitor
// verdicts on candidate zones and decides whether to trigger landing
// execution, request another trial, or abort the flight.
//
// The zero value is not usable; construct with NewDecisionModule.
type DecisionModule struct {
	// MaxTrials bounds how many candidates may be verified before aborting;
	// each trial costs flight time and battery in a degraded mode.
	MaxTrials int

	state  DMState
	trials int
}

// NewDecisionModule builds a DM with the given trial budget (minimum 1).
func NewDecisionModule(maxTrials int) *DecisionModule {
	if maxTrials < 1 {
		maxTrials = 1
	}
	return &DecisionModule{MaxTrials: maxTrials}
}

// State returns the current DM state.
func (dm *DecisionModule) State() DMState { return dm.state }

// Trials returns how many verdicts have been consumed.
func (dm *DecisionModule) Trials() int { return dm.trials }

// Offer feeds one monitor verdict for the current candidate and returns the
// new state: Landing when confirmed, Proposing when another trial is
// allowed, Aborted when the budget is exhausted.
func (dm *DecisionModule) Offer(v monitor.Verdict) DMState {
	if dm.state != Proposing {
		return dm.state
	}
	dm.trials++
	if v.Confirmed {
		dm.state = Landing
		return dm.state
	}
	if dm.trials >= dm.MaxTrials {
		dm.state = Aborted
	}
	return dm.state
}

// Exhausted signals that the core function has no further candidates; the
// DM aborts unless already landing.
func (dm *DecisionModule) Exhausted() DMState {
	if dm.state == Proposing {
		dm.state = Aborted
	}
	return dm.state
}
