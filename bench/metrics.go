package main

import (
	"fmt"
	"math"
	"time"

	"safeland"
)

// tallied is the run's outcomes reduced to what the metrics need.
type tallied struct {
	attempted, failed int
	violations        []string
	// errors holds the first few distinct error messages.
	errors []string

	// Open-loop frames.
	frames, ok, monitored, confirmed, reused int
	latencyMs, safetyMs, queueMs, busyMs     []float64
	lagMs                                    []float64
	cands, trials, trialsOK, retries         int
}

func tally(p plan, ph phase, closed []outcome) tallied {
	var a tallied
	for i, ev := range p.events {
		a.lagMs = append(a.lagMs, ms(ph.lag[i]))
		if ev.kind != evFrame {
			continue
		}
		o := ph.outs[i]
		a.frames++
		a.retries += o.retries
		if o.violation != "" {
			a.violations = append(a.violations, fmt.Sprintf("open-loop event %d: %s", i, o.violation))
		}
		if o.err != nil {
			a.failed++
			a.noteError(o.err)
			// A failed frame misses any latency limit.
			a.latencyMs = append(a.latencyMs, math.Inf(1))
			continue
		}
		a.ok++
		lat := ms(o.latency)
		a.latencyMs = append(a.latencyMs, lat)
		if o.safety {
			a.safetyMs = append(a.safetyMs, lat)
		}
		a.queueMs = append(a.queueMs, ms(o.queued))
		a.busyMs = append(a.busyMs, ms(o.elapsed))
		if o.confirmed {
			a.confirmed++
		}
		if o.degraded {
			continue
		}
		a.monitored++
		if o.reused {
			a.reused++
		}
		a.cands += o.cands
		a.trials += o.trials
		a.trialsOK += o.trialsOK
	}
	for i, o := range closed {
		if o.violation != "" {
			a.violations = append(a.violations, fmt.Sprintf("closed-loop frame %d: %s", i, o.violation))
		}
		if o.err != nil {
			a.failed++
			a.noteError(o.err)
		}
	}
	a.attempted = a.frames + len(closed)
	return a
}

func (a *tallied) noteError(err error) {
	msg := err.Error()
	for _, e := range a.errors {
		if e == msg {
			return
		}
	}
	if len(a.errors) < 5 {
		a.errors = append(a.errors, msg)
	}
}

// latencyMetrics adds the open-loop latency and outcome metrics: the
// outcome shares and, unbounded, the latency percentiles on untraced runs;
// the traced percentiles on traced runs. Open-loop latency runs from the due
// time, in wall-clock time: at this load the CPUs idle between frames, and
// on a shared virtual machine a frame that wakes an idle CPU runs up to
// twice as slowly as a busy one, by amounts that vary from run to run (the
// median spread 7–58 % over ten seeds), so it carries no bound.
func (a *tallied) latencyMetrics(rep *report, tail int) error {
	n := len(a.latencyMs)
	p50, err := percentile(a.latencyMs, 0.5, tail)
	if err != nil {
		return fmt.Errorf("latency: %w", err)
	}
	p90, err := percentile(a.latencyMs, 0.9, tail)
	if err != nil {
		return fmt.Errorf("latency: %w", err)
	}
	if math.IsInf(p90, 1) {
		return fmt.Errorf("latency: more than a tenth of %d frames failed", a.frames)
	}
	if rep.Trace {
		rep.Metrics["trace.latency_p50_ms"] = metric{Value: p50, Unit: "ms", N: n}
		rep.Metrics["trace.latency_p90_ms"] = metric{Value: p90, Unit: "ms", N: n}
		return nil
	}
	rep.Extra["open_latency_p50_ms"] = metric{Value: p50, Unit: "ms", N: n}
	rep.Extra["open_latency_p90_ms"] = metric{Value: p90, Unit: "ms", N: n}
	rep.Metrics["served_frac"] = metric{Value: frac(a.ok, a.frames), Unit: "ratio", N: a.frames}
	rep.Metrics["monitored_frac"] = metric{Value: frac(a.monitored, a.frames), Unit: "ratio", N: a.frames}
	rep.Extra["confirmed_frac"] = metric{Value: frac(a.confirmed, a.frames), Unit: "ratio", N: a.frames}
	// Safety-class frames exist only where vehicles fire their trigger;
	// their latency is reported at the highest percentile the count allows.
	if len(a.safetyMs) > 0 {
		rep.Extra["safety_frames"] = metric{Value: float64(len(a.safetyMs)), Unit: "count"}
		for _, q := range []float64{0.5, 0.9} {
			if v, err := percentile(a.safetyMs, q, tail); err == nil {
				rep.Extra[fmt.Sprintf("safety_p%.0f_ms", 100*q)] = metric{Value: v, Unit: "ms", N: len(a.safetyMs)}
			}
		}
	}
	return nil
}

// spanMargin widens a frame's span when its latency is matched with the
// probe runs around it: the frame's own probe ran just before it was sent.
const spanMargin = 20 * time.Millisecond

// closedMetrics adds the closed-loop latency and capacity, each divided by
// the host slowdown the probe measured while the loop ran (hostspeed.go):
// capacity by the slowdown over the whole loop, a frame's latency by the
// slowdown over its own span widened by spanMargin each side. The raw values
// and the slowdown are printed beside them. A failed frame counts as
// infinitely late and is no part of the capacity.
func closedMetrics(rep *report, closed []outcome, ran time.Duration, host hostSamples, tail int) error {
	slow := host.slowdown()
	var lat, raw []float64
	for _, o := range closed {
		if o.err != nil {
			lat = append(lat, math.Inf(1))
			continue
		}
		f, ok := host.slowdownIn(o.sent.Add(-spanMargin), o.sent.Add(o.latency+spanMargin))
		if !ok {
			f = slow
		}
		raw = append(raw, ms(o.latency))
		lat = append(lat, ms(o.latency)/f)
	}
	n := len(lat)
	p50, err := percentile(lat, 0.5, tail)
	if err != nil {
		return fmt.Errorf("closed-loop latency: %w", err)
	}
	p90, err := percentile(lat, 0.9, tail)
	if err != nil {
		return fmt.Errorf("closed-loop latency: %w", err)
	}
	fps := float64(len(raw)) / ran.Seconds()
	rep.Metrics["latency_p50_ms"] = metric{Value: p50, Unit: "ms", N: n}
	rep.Metrics["capacity_fps"] = metric{Value: fps * slow, Unit: "frames/s", N: len(raw)}
	rep.Extra["latency_p90_ms"] = metric{Value: p90, Unit: "ms", N: n}
	rep.Extra["latency_raw_p50_ms"] = metric{Value: median(raw), Unit: "ms", N: len(raw)}
	rep.Extra["capacity_raw_fps"] = metric{Value: fps, Unit: "frames/s", N: len(raw)}
	rep.Extra["host_slowdown"] = metric{Value: slow, Unit: "ratio", N: len(host)}
	return nil
}

// layerMetrics adds the traced run's load-generator, serving and outcome
// per-layer metrics.
func (a *tallied) layerMetrics(rep *report, st safeland.EngineStats, lagP90 float64, tail int) error {
	q50, err := percentile(a.queueMs, 0.5, tail)
	if err != nil {
		return fmt.Errorf("queue: %w", err)
	}
	q90, err := percentile(a.queueMs, 0.9, tail)
	if err != nil {
		return fmt.Errorf("queue: %w", err)
	}
	n := len(a.queueMs)
	add := func(name string, v float64, unit string, n int) {
		rep.Metrics[name] = metric{Value: v, Unit: unit, N: n}
	}
	add("loadgen.sent", float64(a.frames), "count", 0)
	add("loadgen.succeeded", float64(a.ok), "count", 0)
	add("loadgen.failed", float64(a.frames-a.ok), "count", 0)
	add("loadgen.retries", float64(a.retries), "count", 0)
	add("loadgen.lag_p90_ms", lagP90, "ms", len(a.lagMs))
	add("safeland.queue_p50_ms", q50, "ms", n)
	add("safeland.queue_p90_ms", q90, "ms", n)
	add("safeland.busy_ms", mean(a.busyMs), "ms", n)
	add("safeland.reused_frac", frac(a.reused, a.monitored), "ratio", a.monitored)
	add("safeland.preempted", float64(st.Preempted), "count", 0)
	add("safeland.retried", float64(st.Retried), "count", 0)
	add("safeland.degraded", float64(st.Degraded), "count", 0)
	add("safeland.spilled", float64(st.Spilled), "count", 0)
	add("safeland.breaker_open", float64(st.BreakerOpen), "count", 0)
	add("safeland.session_rejects", float64(st.SessionRejects), "count", 0)
	add("core.candidates_per_frame", frac(a.cands, a.monitored), "count", a.monitored)
	add("core.trials_per_frame", frac(a.trials, a.monitored), "count", a.monitored)
	add("core.trial_confirm_ratio", frac(a.trialsOK, a.trials), "ratio", a.trials)
	add("core.confirmed_frac", frac(a.confirmed, a.frames), "ratio", a.frames)
	return nil
}

// frac is num/den, 0 when there is nothing to divide.
func frac(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
