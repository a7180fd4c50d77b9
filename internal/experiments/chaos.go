package experiments

import (
	"fmt"
	"io"
	"time"

	"safeland"
	"safeland/internal/faults"
)

// chaosRates is the published per-(point, frame) fault mix of the E14
// chaos arm: transient faults at the vehicle points, with shard blackouts
// added as explicit schedule entries (a rate cannot express "shard0 is
// down for frames 1–3").
var chaosRates = faults.Rates{
	SelectorError: 0.25,
	ReplicaStall:  0.10,
}

// chaosInjector builds the E14 injector: seed-keyed transient faults plus
// a deterministic blackout window — shard0 dark for frames 1–3 of every
// descent it hosts (long enough to trip its breaker), shard1 dark for
// frame 1 only (a blip that degrades one frame without opening anything).
func chaosInjector(seed int64) *faults.Injector {
	return faults.NewInjector(seed, chaosRates).
		ScheduleFault(faults.ShardBlackout, "shard0", 1, 2, 3).
		ScheduleFault(faults.ShardBlackout, "shard1", 1)
}

// RunE14 is the chaos drill over the descent-session fleet: the same
// descents as E13, served twice.
//
//   - fault-free arm: one engine, E13's serving mode exactly — its table
//     is pinned byte-identical to E13's by TestE14ChaosDrill;
//   - chaos arm: a two-shard health-aware Router with degraded-mode
//     serving, under the published fault schedule above.
//
// The paper's argument (Figure 1) escalates a monitor refusal to the
// fault-tolerant maneuver rather than trusting a degraded perception
// stack; Guerin et al. 2022 (PAPERS.md) evaluate exactly this kind of
// runtime monitoring under injected faults. E14 extends that contract to
// the serving layer: under injected selector errors, replica stalls and
// shard blackouts, the fleet must report zero hard-failed
// frames — every faulted frame resolves as retried, spilled to a healthy
// shard, or explicitly Degraded with the FT baseline fallback — and a
// degraded verdict must never claim a confirmed zone.
func RunE14(e *Env, w io.Writer) error {
	const framesPerDescent = 5

	fmt.Fprintf(w, "Chaos drill: the E13 %d-frame descents served twice — fault-free on one\n", framesPerDescent)
	fmt.Fprintln(w, "engine, then under a published fault schedule on a two-shard degraded-mode")
	fmt.Fprintln(w, "fleet with health-aware spillover and bounded retry.")
	fmt.Fprintln(w)

	// Fault-free arm: identical construction and serving loop to E13, so
	// its table is byte-identical to E13's (pinned by test).
	eng, err := e.Engine()
	if err != nil {
		return fmt.Errorf("E14: %w", err)
	}
	faultFree, err := runDescentFleet(e, eng, eng, framesPerDescent, "E14 fault-free")
	if err != nil {
		eng.Close()
		return err
	}
	fmt.Fprintln(w, "Fault-free arm (E13 serving mode, pinned byte-identical to E13's table):")
	printDescentTable(w, faultFree)
	if err := eng.Close(); err != nil {
		return fmt.Errorf("E14: closing fault-free engine: %w", err)
	}

	// Published fault schedule: enumerated up front from the injector —
	// a pure function of (seed, kind, point, frame) — so the chaos run is
	// reviewable evidence, not a dice roll. A listed transient fires when
	// serving exercises its injection point (a blacked-out frame never
	// reaches the transient faults, for instance).
	seed := e.Cfg.Seed + 140
	inj := chaosInjector(seed)
	var points []string
	for _, split := range descentSplits(e) {
		for si := range split.specs {
			points = append(points, fmt.Sprintf("%s/%d", split.name, si))
		}
	}
	points = append(points, "shard0", "shard1")
	fmt.Fprintf(w, "\nPublished fault schedule (seed %d; selector-error %.2f, replica-stall %.2f\n",
		seed, chaosRates.SelectorError, chaosRates.ReplicaStall)
	fmt.Fprintln(w, "per vehicle-frame; blackouts scheduled explicitly):")
	fmt.Fprint(w, faults.FormatSchedule(inj.Schedule(points, framesPerDescent)))

	// Chaos arm: two shards sharing the injector, degraded-mode serving,
	// one bounded retry per frame with fast deterministic-jitter backoff.
	shardWorkers := e.Workers() / 2
	if shardWorkers < 1 {
		shardWorkers = 1
	}
	mkShard := func(name string) (*safeland.Engine, error) {
		return e.EngineWith(safeland.PipelineSelector(), shardWorkers,
			safeland.WithShardName(name),
			safeland.WithFaultInjector(inj),
			safeland.WithDegradedFallback(true),
			safeland.WithRetryBackoff(time.Microsecond, time.Millisecond),
		)
	}
	shard0, err := mkShard("shard0")
	if err != nil {
		return fmt.Errorf("E14: %w", err)
	}
	shard1, err := mkShard("shard1")
	if err != nil {
		shard0.Close()
		return fmt.Errorf("E14: %w", err)
	}
	router, err := safeland.NewRouter(shard0, shard1)
	if err != nil {
		shard0.Close()
		shard1.Close()
		return fmt.Errorf("E14: %w", err)
	}
	defer router.Close()

	chaos, err := runDescentFleet(e, router, nil, framesPerDescent, "E14 chaos")
	if err != nil {
		return err
	}
	if len(chaos) != len(faultFree) {
		return fmt.Errorf("E14: chaos arm served %d frames, fault-free arm %d", len(chaos), len(faultFree))
	}

	fmt.Fprintln(w, "\nChaos arm (2 shards, degraded-mode serving, one bounded retry per frame):")
	fmt.Fprintf(w, "  %-18s %7s %9s %9s %8s %7s\n",
		"split", "frames", "served", "degraded", "retried", "reused")
	var totDegraded, totRetried int
	for _, split := range splitNames(chaos) {
		var frames, degraded, retried, reused int
		for _, o := range chaos {
			if o.Split != split {
				continue
			}
			frames++
			if o.Degraded {
				degraded++
			}
			retried += o.Retried
			if o.Reused {
				reused++
			}
		}
		totDegraded += degraded
		totRetried += retried
		// Every frame that reached an outcome was served (runDescentFleet
		// aborts on a hard failure), so availability is frames/frames.
		fmt.Fprintf(w, "  %-18s %7d %8.0f%% %9d %8d %7d\n",
			split, frames, 100.0, degraded, retried, reused)
	}

	// Safety-outcome deltas vs the fault-free arm, frame by frame. A
	// degraded verdict claiming a confirmed zone is the one outcome the
	// contract forbids outright.
	var identical, confirmedToFT, refusalToFT, diverged int
	for i, c := range chaos {
		ff := faultFree[i]
		if c.Degraded {
			if c.Res.Confirmed {
				return fmt.Errorf("E14: degraded verdict on %s frame %d claims a confirmed zone (cause %q)",
					c.Vehicle, c.Frame, c.Cause)
			}
			if c.Cause == "" {
				return fmt.Errorf("E14: degraded verdict on %s frame %d carries no cause", c.Vehicle, c.Frame)
			}
			if ff.Res.Confirmed {
				confirmedToFT++
			} else {
				refusalToFT++
			}
			continue
		}
		if sameZoneOutcome(c.Res, ff.Res, c.W, c.H) {
			identical++
		} else {
			diverged++
		}
	}

	// Fleet counters, cross-checked against the per-frame outcomes so the
	// availability claim rests on the engines' own accounting too.
	var stats safeland.EngineStats
	for _, st := range router.Stats() {
		stats.Frames += st.Frames
		stats.Degraded += st.Degraded
		stats.Retried += st.Retried
		stats.Spilled += st.Spilled
		stats.BreakerOpen += st.BreakerOpen
		stats.Failed += st.Failed
	}
	if stats.Degraded != int64(totDegraded) {
		return fmt.Errorf("E14: engines count %d degraded frames, outcomes count %d", stats.Degraded, totDegraded)
	}
	if stats.Failed != 0 {
		return fmt.Errorf("E14: %d hard-failed requests on the fleet counters", stats.Failed)
	}

	fmt.Fprintf(w, "\nFleet counters: %d frames, %d degraded, %d retries, %d spilled placements,\n",
		stats.Frames, stats.Degraded, stats.Retried, stats.Spilled)
	fmt.Fprintf(w, "%d breaker-opens, %d hard failures.\n", stats.BreakerOpen, stats.Failed)
	fmt.Fprintf(w, "Degraded-frame fraction: %.0f%% (%d/%d); every degraded verdict carried its cause\n",
		100*float64(totDegraded)/float64(len(chaos)), totDegraded, len(chaos))
	fmt.Fprintln(w, "and none claimed a confirmed zone.")
	fmt.Fprintf(w, "Safety outcomes vs fault-free: %d/%d frames identical, %d confirmed verdicts\n",
		identical, len(chaos), confirmedToFT)
	fmt.Fprintf(w, "degraded to the FT fallback, %d refusals degraded, %d diverged.\n", refusalToFT, diverged)
	fmt.Fprintln(w, "Zero hard-failed frames: every faulted frame resolved by retry, spillover, or")
	fmt.Fprintln(w, "an explicit Degraded verdict.")

	fmt.Fprintln(w, "\nConclusion: under injected faults the fleet never silently drops a frame and")
	fmt.Fprintln(w, "never launders a fallback verdict as a verified zone — faults surface as the")
	fmt.Fprintln(w, "paper's FT maneuver (Figure 1), which is exactly the degraded contract the")
	fmt.Fprintln(w, "certification argument needs.")
	return nil
}
