package uav

// Switch is the paper's Figure 1 safety switch: the monitoring policy that
// triggers the suitable emergency procedure when a critical anomaly is
// detected. Decide runs it one observation at a time.
type Switch struct {
	// ELAvailable gates the Emergency Landing branch; without it the switch
	// falls through to Flight Termination.
	ELAvailable bool
	// HoverTimeoutS escalates a temporary loss into a permanent one after
	// this long in Hover (default 30 s); the escalation holds until the
	// observed failure changes.
	HoverTimeoutS float64
}

// Decide is the switch's escalation policy, one observation at a time; the
// mission simulator steps one per tick.
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
