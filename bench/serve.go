package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"safeland"
	"safeland/internal/core"
	"safeland/internal/imaging"
	"safeland/internal/scenario"
	"safeland/internal/urban"
)

// maxResends bounds how often a fleet client re-sends a frame whose routine
// advance was preempted. safeland.ErrPreempted asks the caller to retry, and
// a vehicle keeps sending its frame until it is served: a preempted frame
// restarts cold, as a full selection the shard's safety frames can preempt
// again, and a cap of 3 lost two frames in twenty descent runs. The cap only
// keeps a broken preemption path from looping forever.
const maxResends = 100

// frameRef is one input frame as the program receives it.
type frameRef struct {
	img *imaging.Image
	mpp float64
}

// served is one frame's final outcome, from either response type.
type served struct {
	res      core.Result
	err      error
	degraded bool
	cause    string
	safety   bool
	reused   bool
	queued   time.Duration
	elapsed  time.Duration
	// retries counts client re-sends after ErrPreempted.
	retries int
}

// modelPath is where the trained model of opts is cached: training is a
// build step, done once per checkout like compiling the binary.
func modelPath(cacheDir string, o safeland.Options) string {
	return filepath.Join(cacheDir, fmt.Sprintf("model-s%d-n%d-t%d-px%d.ckpt", o.Seed, o.TrainScenes, o.TrainSteps, o.SceneSize))
}

// ensureModel trains and caches the system under test unless the cache
// already holds it, and returns the checkpoint path.
func ensureModel(cacheDir string, o safeland.Options, log func(string, ...any)) (string, error) {
	path := modelPath(cacheDir, o)
	if _, err := os.Stat(path); err == nil {
		return path, nil
	} else if !errors.Is(err, fs.ErrNotExist) {
		return "", fmt.Errorf("model cache: %w", err)
	}
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return "", fmt.Errorf("model cache: %w", err)
	}
	log("training the system under test (%d scenes, %d steps, %d px); cached at %s", o.TrainScenes, o.TrainSteps, o.SceneSize, path)
	sys := safeland.NewSystem(o)
	tmp := path + ".tmp"
	if err := sys.Save(tmp); err != nil {
		return "", err
	}
	// The benchmark serves the reloaded checkpoint: make sure reloading
	// gives back the system that was trained.
	loaded, err := openSystem(tmp, o)
	if err != nil {
		return "", err
	}
	f := genFrames(urban.DefaultConditions(), 1, dayPoolSeed, framePx)[0]
	want := sys.Pipeline.SelectAndVerify(f.img, f.mpp)
	if got := loaded.Pipeline.SelectAndVerify(f.img, f.mpp); !reflect.DeepEqual(got, want) {
		return "", fmt.Errorf("model cache: reloaded checkpoint selects differently from the trained system")
	}
	if err := os.Rename(tmp, path); err != nil {
		return "", fmt.Errorf("model cache: %w", err)
	}
	return path, nil
}

// openSystem loads the system under test from its checkpoint with the
// monitor settings NewSystem gives it.
func openSystem(path string, o safeland.Options) (*safeland.System, error) {
	sys, err := safeland.Load(path, o.Seed+2)
	if err != nil {
		return nil, err
	}
	sys.Pipeline.Monitor.Samples = o.MCSamples
	return sys, nil
}

// genFrames renders n scenes of a fixed corpus and keeps their frames.
func genFrames(cond urban.Conditions, n int, seed int64, px int) []frameRef {
	cfg := urban.DefaultConfig()
	cfg.W, cfg.H = px, px
	out := make([]frameRef, n)
	for i, sp := range scenario.Set(cfg, cond, n, seed) {
		s := sp.Generate()
		out[i] = frameRef{img: s.Image, mpp: s.MPP}
	}
	return out
}

// rig is one set-up of the system under test for a workload.
type rig struct {
	w       workload
	p       *plan
	sys     *safeland.System
	workers int

	// Stateless workloads.
	eng  *safeland.Engine
	pool []frameRef

	// Fleet workloads.
	router   *safeland.Router
	sessions []*safeland.Session
	triggers []*safeland.SafetyTrigger
	streams  [][]*imaging.Image
	baseMPP  []float64
	// next is each vehicle's next frame number.
	next []atomic.Int64
	// byShard lists the vehicles each shard hosts.
	byShard [][]int
}

// setup builds everything the workload serves from: the frames, the engine
// or sharded fleet, and the sessions. A non-nil rec installs the traced
// selector on stateless engines.
func setup(ctx context.Context, c config, w workload, p *plan, sys *safeland.System, rec *recorder) (*rig, error) {
	r := &rig{w: w, p: p, sys: sys, workers: runtime.GOMAXPROCS(0)}
	if !w.fleet {
		r.pool = genFrames(w.conditions(), poolScenes, w.poolSeed(), c.framePx)
		opts := []safeland.Option{safeland.WithSystem(sys), safeland.WithWorkers(r.workers)}
		if rec != nil {
			opts = append(opts, safeland.WithSelector(tracedSelectorFactory(rec)))
		}
		eng, err := safeland.NewEngine(opts...)
		if err != nil {
			return nil, err
		}
		r.eng = eng
		// Warm every worker's arena: serving pays that once per replica.
		warm := make([]safeland.SelectRequest, r.workers)
		for i := range warm {
			f := r.pool[p.order[i%len(p.order)]]
			warm[i] = safeland.SelectRequest{Image: f.img, MPP: f.mpp}
		}
		for _, resp := range eng.SelectBatch(ctx, warm) {
			if resp.Err != nil {
				r.close()
				return nil, fmt.Errorf("warm-up: %w", resp.Err)
			}
		}
		return r, nil
	}

	// A descent starts once a zone is confirmed, so the fleet flies over
	// daytime scenes the model confirms on.
	bases, err := confirmedBases(ctx, sys, r.workers, c.framePx)
	if err != nil {
		return nil, err
	}
	for b, base := range bases {
		d := scenario.Descent{Frames: descentCycle, Seed: dayPoolSeed + int64(b)}
		r.streams = append(r.streams, scenario.DescentFrames(base.img, d))
		r.baseMPP = append(r.baseMPP, base.mpp)
	}
	shards := make([]*safeland.Engine, r.workers)
	for s := range shards {
		opts := []safeland.Option{safeland.WithSystem(sys), safeland.WithWorkers(1),
			safeland.WithMaxSessions(vehicles), safeland.WithShardName(shardName(s))}
		if w.chaos {
			opts = append(opts, safeland.WithFaultInjector(p.inj), safeland.WithDegradedFallback(true),
				safeland.WithRetryBackoff(time.Millisecond, 10*time.Millisecond))
		}
		if shards[s], err = safeland.NewEngine(opts...); err != nil {
			for _, e := range shards[:s] {
				e.Close()
			}
			return nil, err
		}
	}
	if r.router, err = safeland.NewRouter(shards...); err != nil {
		for _, e := range shards {
			e.Close()
		}
		return nil, err
	}
	r.next = make([]atomic.Int64, vehicles)
	r.byShard = make([][]int, len(shards))
	for v := 0; v < vehicles; v++ {
		for s, e := range shards {
			if r.router.Engine(vehicleID(v)) == e {
				r.byShard[s] = append(r.byShard[s], v)
			}
		}
		var opts []safeland.SessionOption
		if w.triggers {
			t := safeland.NewSafetyTrigger()
			r.triggers = append(r.triggers, t)
			opts = append(opts, safeland.WithSessionTrigger(t))
		}
		sess, err := r.router.NewSession(vehicleID(v), opts...)
		if err != nil {
			r.close()
			return nil, err
		}
		r.sessions = append(r.sessions, sess)
		r.next[v].Store(int64(p.vehicles[v].openFrames))
	}
	// Each vehicle's descent is under way when measuring starts: its cold
	// first frame (a full selection) is served here, so the measured frames
	// are the descent's steady state and the cold frames count as set-up.
	var wg sync.WaitGroup
	warm := make([]served, vehicles)
	for v := range warm {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			warm[v] = r.advance(ctx, v, r.vehicleFrame(v, -1))
		}(v)
	}
	wg.Wait()
	for v, s := range warm {
		if s.err != nil {
			r.close()
			return nil, fmt.Errorf("warm-up of %s: %w", vehicleID(v), s.err)
		}
	}
	return r, nil
}

// confirmedBases probes the daytime corpus and returns up to maxBases
// scenes the model confirms a zone on.
func confirmedBases(ctx context.Context, sys *safeland.System, workers, px int) ([]frameRef, error) {
	probe, err := safeland.NewEngine(safeland.WithSystem(sys), safeland.WithWorkers(workers))
	if err != nil {
		return nil, err
	}
	defer probe.Close()
	frames := genFrames(urban.DefaultConditions(), probeScenes, dayPoolSeed, px)
	reqs := make([]safeland.SelectRequest, len(frames))
	for i, f := range frames {
		reqs[i] = safeland.SelectRequest{Image: f.img, MPP: f.mpp}
	}
	var bases []frameRef
	for i, resp := range probe.SelectBatch(ctx, reqs) {
		if resp.Err != nil {
			return nil, fmt.Errorf("confirm probe: %w", resp.Err)
		}
		if resp.Result.Confirmed && len(bases) < maxBases {
			bases = append(bases, frames[i])
		}
	}
	if len(bases) == 0 {
		return nil, fmt.Errorf("confirm probe: the model confirms no zone on %d daytime scenes", len(frames))
	}
	return bases, nil
}

func (r *rig) close() {
	for _, s := range r.sessions {
		s.Close()
	}
	if r.router != nil {
		r.router.Close()
	}
	if r.eng != nil {
		r.eng.Close()
	}
}

// vehicleFrame returns vehicle v's k-th frame of the measured phases;
// frame -1 is the set-up warm frame.
func (r *rig) vehicleFrame(v, k int) frameRef {
	vp := r.p.vehicles[v]
	b := v % len(r.streams)
	return frameRef{img: r.streams[b][(vp.cycleOffset+k+descentCycle)%descentCycle], mpp: r.baseMPP[b]}
}

// frameOf returns the input of an open-loop frame event.
func (r *rig) frameOf(ev event) frameRef {
	if r.w.fleet {
		return r.vehicleFrame(ev.job, ev.frame)
	}
	return r.pool[ev.job]
}

// selectOne serves one stateless request.
func (r *rig) selectOne(ctx context.Context, f frameRef) served {
	resp := r.eng.Select(ctx, safeland.SelectRequest{Image: f.img, MPP: f.mpp})
	return served{res: resp.Result, err: resp.Err, degraded: resp.Degraded, cause: resp.DegradedCause,
		queued: resp.Queued, elapsed: resp.Elapsed}
}

// advance serves vehicle v's frame, re-sending it when it was preempted.
func (r *rig) advance(ctx context.Context, v int, f frameRef) served {
	var s served
	for {
		resp := r.sessions[v].Advance(ctx, safeland.SelectRequest{Image: f.img, MPP: f.mpp})
		s.res, s.err, s.degraded, s.cause = resp.Result, resp.Err, resp.Degraded, resp.DegradedCause
		s.safety, s.reused = resp.Safety, resp.Reused
		s.queued += resp.Queued
		s.elapsed += resp.Elapsed
		if !errors.Is(resp.Err, safeland.ErrPreempted) || s.retries == maxResends {
			return s
		}
		s.retries++
	}
}

// outcome is what the run keeps of one served frame: a summary always, the
// full result only for the frames the reference check recomputes.
type outcome struct {
	served
	frame     frameRef // kept frames only
	kept      bool
	sent      time.Time // closed-loop frames only
	latency   time.Duration
	violation string
	confirmed bool
	cands     int
	trials    int
	trialsOK  int
}

func summarize(s served, keep bool, f frameRef) outcome {
	o := outcome{served: s, violation: contractViolation(s), confirmed: s.err == nil && s.res.Confirmed}
	if s.err == nil && !s.degraded {
		o.cands, o.trials = s.res.CandidateCount, len(s.res.Trials)
		for _, t := range s.res.Trials {
			if t.Verdict.Confirmed {
				o.trialsOK++
			}
		}
	}
	if keep {
		o.kept, o.frame = true, f
	} else {
		o.res = core.Result{}
	}
	return o
}

// phase is one open-loop run's record.
type phase struct {
	outs []outcome
	// lag is how late the scheduler dispatched each event.
	lag []time.Duration
	// heapMiB is the live heap after the phase, sessions still open.
	heapMiB float64
}

// openLoop issues every event of the plan at its due time from a single
// scheduler goroutine and times each frame from its due time, so a stall
// also delays the requests queued behind it.
func (r *rig) openLoop(ctx context.Context, rec *recorder) phase {
	p := r.p
	ph := phase{outs: make([]outcome, len(p.events)), lag: make([]time.Duration, len(p.events))}
	keep := map[int]bool{}
	for _, i := range p.checks {
		keep[i] = true
	}
	start := time.Now()
	var wg sync.WaitGroup
	finish := func(i int, ev event, s served, due, done time.Time) {
		f := r.frameOf(ev)
		o := summarize(s, keep[i], f)
		o.latency = done.Sub(due)
		ph.outs[i] = o
		if rec != nil {
			traceFrame(rec, int64(i+1), s, due, done)
		}
	}
	var lanes []chan int
	if r.w.fleet {
		// One client per vehicle sends its frames in order, as a vehicle's
		// camera would; a frame due while the previous one is in flight
		// waits in the client and the wait counts toward its latency.
		lanes = make([]chan int, vehicles)
		for v := range lanes {
			lanes[v] = make(chan int, p.vehicles[v].openFrames)
			wg.Add(1)
			go func(v int) {
				defer wg.Done()
				for i := range lanes[v] {
					ev := p.events[i]
					s := r.advance(ctx, v, r.frameOf(ev))
					finish(i, ev, s, start.Add(ev.due), time.Now())
				}
			}(v)
		}
	}
	for i, ev := range p.events {
		due := start.Add(ev.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		ph.lag[i] = time.Since(due)
		switch {
		case ev.kind == evTrigger:
			r.triggers[ev.job].Trigger("scheduled vehicle failure")
		case r.w.fleet:
			lanes[ev.job] <- i
		default:
			wg.Add(1)
			go func(i int, ev event) {
				defer wg.Done()
				cctx := ctx
				if rec != nil {
					cctx = withTrace(ctx, int64(i+1), serveSpanID(int64(i+1)))
				}
				s := r.selectOne(cctx, r.frameOf(ev))
				finish(i, ev, s, start.Add(ev.due), time.Now())
			}(i, ev)
		}
	}
	for _, l := range lanes {
		close(l)
	}
	wg.Wait()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ph.heapMiB = float64(ms.HeapAlloc) / (1 << 20)
	return ph
}

// Span ids of request i: its root, queue and serve spans. The recorder's
// own ids start above those of the last request.
func rootSpanID(req int64) int64  { return 3*req - 2 }
func queueSpanID(req int64) int64 { return 3*req - 1 }
func serveSpanID(req int64) int64 { return 3 * req }

// traceFrame records a frame's root span (due → done) and its queue and
// serve children, reconstructed from the response's Queued and Elapsed.
func traceFrame(rec *recorder, req int64, s served, due, done time.Time) {
	serveStart := done.Add(-s.elapsed)
	rec.add(rootSpanID(req), 0, req, "loadgen.request", due, done)
	rec.add(queueSpanID(req), rootSpanID(req), req, "safeland.queue", serveStart.Add(-s.queued), serveStart)
	rec.add(serveSpanID(req), rootSpanID(req), req, "safeland.serve", serveStart, done)
}

// closedLoop runs one caller per worker, each sending its next frame when
// the previous one completes, for d: on a fleet, caller c cycles through
// the vehicles of shard c, so every shard always has one frame to serve and
// callers never queue on each other's shard. Before each frame a caller runs
// the host probe, so the probe samples the host while the other callers'
// frames run. Every outcome carries when it was sent and its latency; the
// loop also returns the probe runs, in time order, and how long it ran,
// until the last frame came back.
func (r *rig) closedLoop(ctx context.Context, d time.Duration) ([]outcome, hostSamples, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	var next atomic.Int64
	per := make([][]outcome, r.workers)
	probes := make([]hostSamples, r.workers)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if r.w.fleet && len(r.byShard[c]) == 0 {
				return
			}
			for n := 0; time.Now().Before(deadline); n++ {
				probes[c] = append(probes[c], runHostProbe())
				sent := time.Now()
				var s served
				var f frameRef
				if r.w.fleet {
					v := r.byShard[c][n%len(r.byShard[c])]
					f = r.vehicleFrame(v, int(r.next[v].Add(1)-1))
					s = r.advance(ctx, v, f)
				} else {
					k := int(next.Add(1) - 1)
					f = r.pool[r.p.order[k%len(r.p.order)]]
					s = r.selectOne(ctx, f)
				}
				o := summarize(s, false, f)
				o.sent, o.latency = sent, time.Since(sent)
				per[c] = append(per[c], o)
			}
		}(c)
	}
	wg.Wait()
	ran := time.Since(start)
	var outs []outcome
	var host hostSamples
	for c := range per {
		outs = append(outs, per[c]...)
		host = append(host, probes[c]...)
	}
	sort.Slice(host, func(i, j int) bool { return host[i].at.Before(host[j].at) })
	return outs, host, ran
}

// probeFrames returns up to n of the workload's input frames for the
// per-layer probes.
func (r *rig) probeFrames(n int) []frameRef {
	var out []frameRef
	if r.w.fleet {
		for b := 0; len(out) < n; b++ {
			out = append(out, frameRef{img: r.streams[b%len(r.streams)][b/len(r.streams)], mpp: r.baseMPP[b%len(r.streams)]})
		}
		return out
	}
	for i := 0; i < n; i++ {
		out = append(out, r.pool[r.p.order[i%len(r.p.order)]])
	}
	return out
}
