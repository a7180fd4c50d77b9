package uav

import (
	"context"
)

// HealthEvent is one observation on the vehicle health bus. A Failure of
// NoFailure reports recovery. Tick events (same failure as before) advance
// the switch's notion of time so it can escalate lingering conditions.
type HealthEvent struct {
	T       float64 // simulation time (s)
	Failure FailureKind
}

// Decision is an output of the safety switch: the maneuver to engage.
type Decision struct {
	T        float64
	Failure  FailureKind
	Maneuver Maneuver
}

// Switch is the paper's Figure 1 safety switch: a continuous monitoring
// loop that analyses acquisition data and triggers the suitable emergency
// procedure when a critical anomaly is detected. It runs as a goroutine
// consuming health events and emitting maneuver decisions.
type Switch struct {
	// ELAvailable gates the Emergency Landing branch; without it the switch
	// falls through to Flight Termination.
	ELAvailable bool
	// HoverTimeoutS escalates a temporary loss into a permanent one after
	// this long in Hover (default 30 s); the escalation holds until the
	// observed failure changes.
	HoverTimeoutS float64
}

// Run consumes events until the context is cancelled or the event channel
// closes, feeding each to one Decide and sending a Decision whenever the
// maneuver its Step returns changes. It closes the decisions channel on
// return.
func (s *Switch) Run(ctx context.Context, events <-chan HealthEvent, decisions chan<- Decision) {
	defer close(decisions)
	d := Decide{Switch: *s}
	maneuver := ContinueMission
	for {
		select {
		case <-ctx.Done():
			return
		case ev, ok := <-events:
			if !ok {
				return
			}
			m := d.Step(ev.T, ev.Failure)
			if m == maneuver {
				continue
			}
			maneuver = m
			select {
			case decisions <- Decision{T: ev.T, Failure: d.current, Maneuver: m}:
			case <-ctx.Done():
				return
			}
		}
	}
}

// Decide is the switch's escalation policy, one observation at a time: Run
// drives one, and the simulator steps one without goroutines.
type Decide struct {
	Switch Switch
	// observed is the failure last fed to Step; current is the failure the
	// policy acts on: observed, or CommLossPermanent once a hover has
	// lingered past the timeout, until the observed failure changes.
	observed, current FailureKind
	hoverSince        float64
	hovering          bool
}

// Step feeds one observation and returns the maneuver to fly.
func (d *Decide) Step(t float64, failure FailureKind) Maneuver {
	if failure != d.observed {
		d.observed, d.current = failure, failure
		d.hovering = false
	}
	m := SelectManeuver(d.current, d.Switch.ELAvailable)
	if m == Hover {
		timeout := d.Switch.HoverTimeoutS
		if timeout <= 0 {
			timeout = 30
		}
		if !d.hovering {
			d.hovering = true
			d.hoverSince = t
		}
		if t-d.hoverSince >= timeout {
			// A "temporary" loss that lingers is treated as permanent:
			// escalate to Return-to-Base.
			d.current = CommLossPermanent
			m = SelectManeuver(d.current, d.Switch.ELAvailable)
		}
	}
	return m
}
