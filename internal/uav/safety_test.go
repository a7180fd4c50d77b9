package uav

import (
	"context"
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

func TestSwitchRunRecoveryEmitsContinue(t *testing.T) {
	ctx := context.Background()
	events := make(chan HealthEvent, 4)
	decisions := make(chan Decision, 4)
	sw := &Switch{ELAvailable: true, HoverTimeoutS: 100}
	events <- HealthEvent{T: 0, Failure: CommLossTemporary}
	events <- HealthEvent{T: 5, Failure: NoFailure}
	close(events)
	sw.Run(ctx, events, decisions)
	var got []Maneuver
	for d := range decisions {
		got = append(got, d.Maneuver)
	}
	if len(got) != 2 || got[0] != Hover || got[1] != ContinueMission {
		t.Fatalf("decisions = %v, want [Hover ContinueMission]", got)
	}
}

func TestSwitchRunNoELFallsToFT(t *testing.T) {
	events := make(chan HealthEvent, 2)
	decisions := make(chan Decision, 2)
	events <- HealthEvent{T: 0, Failure: NavigationLoss}
	close(events)
	(&Switch{ELAvailable: false}).Run(context.Background(), events, decisions)
	d, ok := <-decisions
	if !ok || d.Maneuver != FlightTermination {
		t.Fatalf("decision = %+v ok=%v, want FT", d, ok)
	}
}

// TestSwitchRunEscalationLatches is TestDecideEscalationLatches through the
// goroutine form: the ticks after the escalation emit nothing.
func TestSwitchRunEscalationLatches(t *testing.T) {
	events := make(chan HealthEvent, 5)
	decisions := make(chan Decision, 5)
	for _, ts := range []float64{0, 5, 11, 12, 13} {
		events <- HealthEvent{T: ts, Failure: CommLossTemporary}
	}
	close(events)
	(&Switch{ELAvailable: true, HoverTimeoutS: 10}).Run(context.Background(), events, decisions)
	want := []Decision{
		{T: 0, Failure: CommLossTemporary, Maneuver: Hover},
		{T: 11, Failure: CommLossPermanent, Maneuver: ReturnToBase},
	}
	var got []Decision
	for d := range decisions {
		got = append(got, d)
	}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("decisions = %+v, want %+v", got, want)
	}
}

// FuzzSafetySwitch checks, for any event sequence, timeout and EL
// availability, that Run emits exactly the changes of one Decide's Step
// (time, acted-on failure and maneuver), and that a temporary loss once
// escalated to Return-to-Base never drops back to Hover while it persists.
// Each pair of input bytes is one event: a failure kind and a time step of
// up to 25.5 s.
func FuzzSafetySwitch(f *testing.F) {
	f.Add([]byte{1, 0, 1, 50, 1, 60, 1, 10, 1, 10}, uint8(10), true)
	f.Add([]byte{1, 0, 0, 50, 1, 250, 1, 100, 4, 1, 1, 1}, uint8(0), false)
	f.Add([]byte{2, 10, 1, 10, 1, 200, 7, 0}, uint8(3), true)
	f.Fuzz(func(t *testing.T, in []byte, timeout uint8, el bool) {
		sw := Switch{ELAvailable: el, HoverTimeoutS: float64(timeout)}
		events := make([]HealthEvent, 0, len(in)/2)
		ts := 0.0
		for i := 0; i+1 < len(in); i += 2 {
			ts += float64(in[i+1]) / 10
			events = append(events, HealthEvent{T: ts, Failure: FailureKind(int(in[i]) % (int(FlightControlFault) + 1))})
		}

		var want []Decision
		d := Decide{Switch: sw}
		last := ContinueMission
		escalated := false
		for i, ev := range events {
			m := d.Step(ev.T, ev.Failure)
			if i > 0 && ev.Failure != events[i-1].Failure {
				escalated = false
			}
			if escalated && m == Hover {
				t.Fatalf("event %d (t=%v): an escalated %v dropped back to Hover", i, ev.T, ev.Failure)
			}
			if ev.Failure == CommLossTemporary && m == ReturnToBase {
				escalated = true
			}
			if m != last {
				want = append(want, Decision{T: ev.T, Failure: d.current, Maneuver: m})
				last = m
			}
		}

		ch := make(chan HealthEvent, len(events))
		for _, ev := range events {
			ch <- ev
		}
		close(ch)
		decisions := make(chan Decision, len(events))
		sw.Run(context.Background(), ch, decisions)
		var got []Decision
		for dec := range decisions {
			got = append(got, dec)
		}
		if len(got) != len(want) {
			t.Fatalf("Run emitted %d decisions %+v, Step changed %d times %+v", len(got), got, len(want), want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("decision %d: Run %+v, Step %+v", i, got[i], want[i])
			}
		}
	})
}
