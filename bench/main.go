// Command bench is the EL-service benchmark: it trains (once per checkout)
// the fixed system under test, generates a workload's inputs from a seed,
// drives them open-loop and then closed-loop through the serving API,
// checks every output, and prints the end-to-end metrics — or, with
// --trace 1, the per-layer ones. See README.md for the workloads and
// metrics, and for -compare.
//
//	bash bench/run.sh --workload oneshot --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"safeland"
	"safeland/internal/nn"
)

// config is one run's settings; the command line fills it, the smoke test
// scales it down.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	framePx  int
	train    safeland.Options
	cacheDir string
	spans    string
	// tail is how many samples a printed percentile needs beyond it.
	tail int
}

// maxLagMs is the run-validity limit on how late the scheduler may issue
// requests (p90). With one P per CPU and every P computing, an expired timer
// waits for a worker to finish or for the runtime's 10 ms preemption tick,
// so lags near 10 ms are inherent and are inside the measured latency (it
// runs from the due time); a p90 past 2.5 ticks means the generator itself
// fell behind.
const maxLagMs = 25

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "oneshot, night, descent or chaos")
	seed := fs.Int64("seed", 1, "workload seed: arrivals, scene order, descents, triggers, faults")
	seconds := fs.Float64("seconds", 20, "measured time: half open-loop phase, half closed-loop phase")
	trace := fs.Int("trace", 0, "1 runs the traced phase and prints the per-layer metrics instead")
	out := fs.String("out", "", "also write the full run report (JSON) to this file")
	spans := fs.String("spans", "", "traced runs: write every span (JSON lines) to this file")
	cacheDir := fs.String("cache-dir", ".bench_build", "directory caching the trained model")
	compare := fs.Bool("compare", false, "compare run reports against the BENCHMARK.json bounds: -compare BASE.json... [-- NEW.json...]")
	ledger := fs.String("ledger", "", "with -compare: also write the comparison and its inputs (JSON) to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if err := runCompare(fs.Args(), "BENCHMARK.json", *ledger, stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: usage: --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	c := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		framePx: framePx, train: trainOptions, cacheDir: *cacheDir, spans: *spans, tail: minTail}
	rep, err := run(context.Background(), c, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	writeTable(stderr, rep)
	if *out != "" {
		rep.Machine.CPUModel = cpuModel()
		if err := writeJSON(*out, rep); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	line, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// run performs one benchmark run. An error means the run is invalid (it
// could not be set up, or the load generator or a percentile's sample
// count fails its validity gate); a finished run reports correctness in
// the report.
func run(ctx context.Context, c config, log io.Writer) (*report, error) {
	w, err := lookupWorkload(c.workload)
	if err != nil {
		return nil, err
	}
	logf := func(format string, a ...any) { fmt.Fprintf(log, "bench: "+format+"\n", a...) }
	total := time.Duration(c.seconds * float64(time.Second))
	open := time.Duration(float64(total) * openShare)
	p := makePlan(w, c.seed, open)

	rep := &report{Workload: w.name, Seed: c.seed, Seconds: c.seconds, Trace: c.trace,
		Metrics: map[string]metric{}, Extra: map[string]metric{}}
	if p.inj != nil {
		rep.Faults = faultPlan(p)
		logf("chaos fault plan (seed %d): %d faults, shard0 blackout at frames %v; full plan in the -out report",
			c.seed, len(rep.Faults), p.blackout)
	}

	path, err := ensureModel(c.cacheDir, c.train, logf)
	if err != nil {
		return nil, err
	}
	var rec *recorder
	if c.trace {
		rec = newRecorder(time.Now(), serveSpanID(int64(len(p.events))))
	}
	// Set-up is repeated and reported as its median, so work moved into
	// set-up shows without one slow first set-up deciding the number.
	setups := 3
	if c.trace {
		setups = 1
	}
	var r *rig
	for i := 0; i < setups; i++ {
		if r != nil {
			r.close()
		}
		t := time.Now()
		sys, err := openSystem(path, c.train)
		if err != nil {
			return nil, err
		}
		if r, err = setup(ctx, c, w, &p, sys, rec); err != nil {
			return nil, err
		}
		rep.Setups = append(rep.Setups, time.Since(t).Seconds())
	}
	rep.Machine = currentMachine(nn.Parallelism())

	ph := r.openLoop(ctx, rec)
	var closed []outcome
	var ran time.Duration
	var host hostSamples
	if !c.trace {
		closed, host, ran = r.closedLoop(ctx, total-open)
	}
	st := r.stats()
	var layers map[string]metric
	if c.trace {
		if layers, err = probeLayers(ctx, r.sys, r.probeFrames(probeFrameCount)); err != nil {
			r.close()
			return nil, err
		}
	}
	r.close()
	nChecked, mismatches, err := checkReferences(ctx, r.sys, ph.outs)
	if err != nil {
		return nil, err
	}

	a := tally(p, ph, closed)
	rep.Attempted, rep.Failed = a.attempted, a.failed
	rep.Errors = a.errors
	rep.Problems = append(rep.Problems, a.violations...)
	rep.Problems = append(rep.Problems, mismatches...)
	if nChecked == 0 {
		rep.Problems = append(rep.Problems, "no served frame could be checked against the sequential reference")
	}
	if w.chaos && a.failed > 0 {
		rep.Problems = append(rep.Problems, fmt.Sprintf("chaos: %d frames failed with an error; degraded serving must answer every frame", a.failed))
	}
	rep.Correct = len(rep.Problems) == 0
	rep.Extra["checked_frames"] = metric{Value: float64(nChecked), Unit: "count"}

	lag, err := percentile(a.lagMs, 0.9, c.tail)
	if err != nil {
		return nil, fmt.Errorf("load generator lag: %w", err)
	}
	if lag > maxLagMs {
		return nil, fmt.Errorf("load generator ran late: lag p90 %.2f ms > %d ms", lag, maxLagMs)
	}
	if err := a.latencyMetrics(rep, c.tail); err != nil {
		return nil, err
	}
	rep.Extra["lag_p90_ms"] = metric{Value: lag, Unit: "ms", N: len(a.lagMs)}
	if !c.trace {
		if err := closedMetrics(rep, closed, ran, host, c.tail); err != nil {
			return nil, err
		}
		// Set-up runs both CPUs on the program's own work, as the closed
		// loop does, a few seconds earlier: its time is divided by the
		// closed loop's host slowdown. Probe runs bracketing each set-up
		// moved its median by up to 17 % between two sets of runs, this by
		// up to 11 %, and the raw median by up to 23 %.
		rep.Metrics["setup_s"] = metric{Value: median(rep.Setups) / host.slowdown(), Unit: "s", N: len(rep.Setups)}
		rep.Extra["setup_raw_s"] = metric{Value: median(rep.Setups), Unit: "s", N: len(rep.Setups)}
		rep.Metrics["live_heap_mb"] = metric{Value: ph.heapMiB, Unit: "MiB"}
	} else {
		if err := a.layerMetrics(rep, st, lag, c.tail); err != nil {
			return nil, err
		}
		for k, m := range layers {
			rep.Metrics[k] = m
		}
		self := selfTimes(rec.spans)
		rep.SelfTimes = map[string]float64{}
		var stages, serve float64
		for name, d := range self {
			rep.SelfTimes[name] = ms(d)
			if !strings.HasPrefix(name, "safeland.") && !strings.HasPrefix(name, "loadgen.") {
				stages += ms(d)
			}
		}
		for _, s := range rec.spans {
			if s.Name == "safeland.serve" {
				serve += float64(s.End-s.Start) / 1e6
			}
		}
		rep.Metrics["trace.stage_share"] = metric{Value: stages / serve, Unit: "ratio"}
		if c.spans != "" {
			if err := rec.write(c.spans); err != nil {
				return nil, err
			}
		}
	}
	for k, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", k, m.Value)
		}
	}
	return rep, nil
}

// faultPlan renders the chaos injector's plan over the warm frame and the
// open-loop frames.
func faultPlan(p plan) []string {
	frames := 0
	for _, vp := range p.vehicles {
		frames = max(frames, vp.openFrames+1)
	}
	var out []string
	for _, e := range p.inj.Schedule(faultPoints(runtime.GOMAXPROCS(0)), frames) {
		out = append(out, fmt.Sprintf("frame %d: %s@%s", e.Frame, e.Kind, e.Point))
	}
	return out
}

// stats returns the serving counters, summed over a fleet's shards.
func (r *rig) stats() safeland.EngineStats {
	if r.eng != nil {
		return r.eng.Stats()
	}
	var sum safeland.EngineStats
	for _, s := range r.router.Stats() {
		sum.Frames += s.Frames
		sum.FramesReused += s.FramesReused
		sum.Preempted += s.Preempted
		sum.Retried += s.Retried
		sum.Degraded += s.Degraded
		sum.Spilled += s.Spilled
		sum.BreakerOpen += s.BreakerOpen
		sum.SessionRejects += s.SessionRejects
	}
	return sum
}
