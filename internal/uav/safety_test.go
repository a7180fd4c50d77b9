package uav

import (
	"testing"
	"testing/quick"
)

func TestDecideStateMachine(t *testing.T) {
	d := &Decide{Switch: Switch{ELAvailable: true, HoverTimeoutS: 10}}
	if m := d.Step(0, NoFailure); m != ContinueMission {
		t.Fatalf("nominal step = %v", m)
	}
	// Temporary loss: hover, then recovery resumes the mission.
	if m := d.Step(1, CommLossTemporary); m != Hover {
		t.Fatalf("temporary loss = %v", m)
	}
	if m := d.Step(5, NoFailure); m != ContinueMission {
		t.Fatalf("recovery = %v", m)
	}
	// A second temporary loss restarts the hover timer from scratch.
	if m := d.Step(20, CommLossTemporary); m != Hover {
		t.Fatalf("second loss = %v", m)
	}
	if m := d.Step(25, CommLossTemporary); m != Hover {
		t.Fatalf("within timeout = %v", m)
	}
	if m := d.Step(31, CommLossTemporary); m != ReturnToBase {
		t.Fatalf("past timeout should escalate to RB, got %v", m)
	}
}

// TestDecideEscalationLatches pins that a lingering temporary loss, once
// escalated to Return-to-Base, stays escalated while the same failure is
// observed, and that a change of the observed failure releases it.
func TestDecideEscalationLatches(t *testing.T) {
	d := &Decide{Switch: Switch{ELAvailable: true, HoverTimeoutS: 10}}
	steps := []struct {
		t       float64
		failure FailureKind
		want    Maneuver
	}{
		{0, CommLossTemporary, Hover},
		{5, CommLossTemporary, Hover},
		{11, CommLossTemporary, ReturnToBase},
		{12, CommLossTemporary, ReturnToBase},
		{13, CommLossTemporary, ReturnToBase},
		{14, NoFailure, ContinueMission},
		{15, CommLossTemporary, Hover},
	}
	for _, s := range steps {
		if m := d.Step(s.t, s.failure); m != s.want {
			t.Fatalf("t=%v %v: %v, want %v", s.t, s.failure, m, s.want)
		}
	}
}

func TestDecideHoverTimerResetOnNewFailure(t *testing.T) {
	d := &Decide{Switch: Switch{ELAvailable: true, HoverTimeoutS: 10}}
	d.Step(0, CommLossTemporary)
	d.Step(8, CommLossTemporary)
	// Failure kind changes: navigation loss overrides hover immediately.
	if m := d.Step(9, NavigationLoss); m != EmergencyLanding {
		t.Fatalf("navigation loss during hover = %v", m)
	}
}

func TestDecideDefaultTimeout(t *testing.T) {
	d := &Decide{Switch: Switch{ELAvailable: false}} // zero timeout → 30 s default
	d.Step(0, CommLossTemporary)
	if m := d.Step(29, CommLossTemporary); m != Hover {
		t.Fatalf("before default timeout = %v", m)
	}
	if m := d.Step(30, CommLossTemporary); m != ReturnToBase {
		t.Fatalf("default timeout escalation = %v", m)
	}
}

// TestSelectManeuverTotalAndOrdered property-checks that every failure kind
// yields a defined maneuver and that removing EL availability never yields a
// *less* severe response.
func TestSelectManeuverTotalAndOrdered(t *testing.T) {
	property := func(kRaw uint8, el bool) bool {
		k := FailureKind(int(kRaw) % (int(FlightControlFault) + 1))
		m := SelectManeuver(k, el)
		if m < ContinueMission || m > FlightTermination {
			return false
		}
		withEL := SelectManeuver(k, true)
		withoutEL := SelectManeuver(k, false)
		return withoutEL >= withEL
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDecideNoELFallsToFT(t *testing.T) {
	d := &Decide{Switch: Switch{ELAvailable: false}}
	if m := d.Step(0, NavigationLoss); m != FlightTermination {
		t.Fatalf("navigation loss without EL = %v, want FT", m)
	}
}

// FuzzSafetySwitch checks, for any observation sequence, timeout and EL
// availability, that Decide answers each observation with a defined
// maneuver, and that a temporary loss once escalated to Return-to-Base
// never drops back to Hover while it persists. Each pair of input bytes is
// one observation: a failure kind and a time step of up to 25.5 s.
func FuzzSafetySwitch(f *testing.F) {
	f.Add([]byte{1, 0, 1, 50, 1, 60, 1, 10, 1, 10}, uint8(10), true)
	f.Add([]byte{1, 0, 0, 50, 1, 250, 1, 100, 4, 1, 1, 1}, uint8(0), false)
	f.Add([]byte{2, 10, 1, 10, 1, 200, 7, 0}, uint8(3), true)
	f.Fuzz(func(t *testing.T, in []byte, timeout uint8, el bool) {
		d := Decide{Switch: Switch{ELAvailable: el, HoverTimeoutS: float64(timeout)}}
		ts := 0.0
		prev := NoFailure
		escalated := false
		for i := 0; i+1 < len(in); i += 2 {
			ts += float64(in[i+1]) / 10
			failure := FailureKind(int(in[i]) % (int(FlightControlFault) + 1))
			m := d.Step(ts, failure)
			if m < ContinueMission || m > FlightTermination {
				t.Fatalf("t=%v %v: undefined maneuver %v", ts, failure, m)
			}
			if failure != prev {
				escalated = false
			}
			if escalated && m == Hover {
				t.Fatalf("t=%v: an escalated %v dropped back to Hover", ts, failure)
			}
			if failure == CommLossTemporary && m == ReturnToBase {
				escalated = true
			}
			prev = failure
		}
	})
}
