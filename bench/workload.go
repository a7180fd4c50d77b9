package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"safeland"
	"safeland/internal/faults"
	"safeland/internal/urban"
)

// The system under test is fixed: every workload serves the same trained
// model, so a change to the model shows as a change of the system, never of
// the workload.
var trainOptions = safeland.Options{Seed: 2021, TrainScenes: 3, TrainSteps: 150, SceneSize: 128, MCSamples: 10}

// Traffic shape shared by the workloads. The open-loop rates are sized to
// about 40 % load on a 2-CPU machine (a daytime selection costs ~90 ms of
// one CPU, a sunset one ~65 ms, a cold descent frame ~100 ms and a warm one
// ~15 ms) and give the stateless workloads over 100 frames, so their p90
// has ten samples beyond it.
const (
	framePx = 192
	// poolScenes is the size of the stateless workloads' scene pool.
	poolScenes = 48
	// Frame content comes from fixed corpus seeds — the scene pools, the
	// descent bases and their perturbation cycles — so --seed varies the
	// traffic (arrival times, scene order, where each vehicle enters its
	// cycle, clock phases, triggers, faults) but not the work per frame:
	// drawing the content from --seed moved the mean work per frame and the
	// number of disputed descent frames by more than the bounds allow.
	dayPoolSeed    = 7000
	sunsetPoolSeed = 9000

	vehicles    = 32
	triggered   = 8
	framePeriod = time.Second
	// descentCycle is the length of each base scene's synthetic descent;
	// a vehicle loops over its base's cycle from a seeded offset, which
	// keeps the fleet's frames in a few tens of MB.
	descentCycle = 16
	maxBases     = 8
	probeScenes  = 16

	// openShare of --seconds is the open-loop phase, the rest the
	// closed-loop phase the latency and capacity metrics come from.
	openShare = 0.5
	// checked is how many served frames per run are recomputed by the
	// sequential reference.
	checked = 16

	chaosSelectorError = 0.05
	chaosReplicaStall  = 0.02
	chaosStall         = 20 * time.Millisecond
)

// workload is one traffic mix. Stateless workloads drive Engine.Select at a
// Poisson rate; fleet workloads drive one Router session per vehicle at one
// frame per vehicle per framePeriod. Why each exists is in BENCHMARK.json.
type workload struct {
	name     string
	fleet    bool
	rate     float64 // stateless only: requests per second
	triggers bool    // fleet only: some vehicles fire their SafetyTrigger
	chaos    bool    // fleet only: fault injection with degraded serving
}

var workloads = []workload{
	{name: "oneshot", rate: 10},
	{name: "night", rate: 12},
	{name: "descent", fleet: true, triggers: true},
	{name: "chaos", fleet: true, chaos: true},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want oneshot, night, descent or chaos)", name)
}

// conditions returns the capture conditions of the workload's frames.
func (w workload) conditions() urban.Conditions {
	if w.name == "night" {
		return urban.SunsetConditions()
	}
	return urban.DefaultConditions()
}

func (w workload) poolSeed() int64 {
	if w.name == "night" {
		return sunsetPoolSeed
	}
	return dayPoolSeed
}

// eventKind tells the scheduler what a due event does.
type eventKind int

const (
	evFrame   eventKind = iota // serve one frame
	evTrigger                  // fire a vehicle's SafetyTrigger
)

// event is one entry of the open-loop schedule.
type event struct {
	due  time.Duration
	kind eventKind
	// job is the pool index (stateless) or the vehicle (fleet).
	job int
	// frame is the vehicle's frame number (fleet frames only).
	frame int
}

// vehiclePlan is one vehicle's seeded descent. Vehicle v flies over
// confirmed base v mod the number of bases.
type vehiclePlan struct {
	// cycleOffset is where the vehicle enters its base's descent cycle.
	cycleOffset int
	// phase offsets the vehicle's frame clock over the first quarter of
	// the phase, so frame-keyed events (a shard blackout, the cold frames
	// that follow it) do not hit every vehicle in the same second.
	phase time.Duration
	// openFrames is how many frames the vehicle sends in the open-loop phase.
	openFrames int
}

// plan is everything the workload generates from the seed, before any
// model exists: the program under test only ever sees its outcome.
type plan struct {
	events []event
	// order is the closed-loop pool order (stateless workloads).
	order []int
	// vehicles is the fleet (fleet workloads).
	vehicles []vehiclePlan
	// checks are the event indices retained for the reference check.
	checks []int
	// inj is the chaos workload's fault injector, nil otherwise.
	inj *faults.Injector
	// blackout lists the shard0 blackout frames (chaos only).
	blackout []int
}

// makePlan derives the workload's inputs from seed for an open-loop phase
// of the given length. The same (workload, seed, open) always gives the
// same plan.
func makePlan(w workload, seed int64, open time.Duration) plan {
	rng := rand.New(rand.NewSource(seed))
	var p plan
	if !w.fleet {
		// A Poisson process conditioned on its count: n arrivals uniform
		// over the phase. Fixing n keeps every percentile's sample count
		// the same from seed to seed.
		n := int(w.rate*open.Seconds() + 0.5)
		dues := make([]time.Duration, n)
		for i := range dues {
			dues[i] = time.Duration(rng.Float64() * float64(open))
		}
		sort.Slice(dues, func(a, b int) bool { return dues[a] < dues[b] })
		perm := rng.Perm(poolScenes)
		for i, d := range dues {
			p.events = append(p.events, event{due: d, kind: evFrame, job: perm[i%poolScenes]})
		}
		for i := 0; i < poolScenes; i++ {
			p.order = append(p.order, perm[(n+i)%poolScenes])
		}
		p.checks = pickChecks(rng, len(p.events))
		return p
	}

	// Every vehicle sends the same number of frames, whatever its phase:
	// the outcome shares then divide by the same count on every seed.
	perVehicle := max(1, int((open-open/4)/framePeriod))
	p.vehicles = make([]vehiclePlan, vehicles)
	for v := range p.vehicles {
		vp := vehiclePlan{
			cycleOffset: rng.Intn(descentCycle),
			phase:       time.Duration(rng.Float64() * float64(open/4)),
			openFrames:  perVehicle,
		}
		for k := 0; k < perVehicle; k++ {
			p.events = append(p.events, event{due: vp.phase + time.Duration(k)*framePeriod, kind: evFrame, job: v, frame: k})
		}
		p.vehicles[v] = vp
	}
	if w.triggers {
		// Triggers fire between 3/16 and 12/16 of the phase: late enough
		// that the fleet is warm, early enough that safety frames follow.
		for _, v := range rng.Perm(vehicles)[:triggered] {
			at := open*3/16 + time.Duration(rng.Float64()*float64(open*9/16))
			p.events = append(p.events, event{due: at, kind: evTrigger, job: v})
		}
	}
	sort.SliceStable(p.events, func(a, b int) bool { return p.events[a].due < p.events[b].due })
	if w.chaos {
		// shard0 goes dark for three consecutive frames of every descent it
		// hosts: enough to trip its breaker (threshold 3). Fault frames
		// count a session's frames, the set-up warm frame being frame 0.
		b := int(open/framePeriod) / 4
		if b < 1 {
			b = 1
		}
		p.blackout = []int{b, b + 1, b + 2}
		p.inj = faults.NewInjector(seed, faults.Rates{
			SelectorError: chaosSelectorError,
			ReplicaStall:  chaosReplicaStall,
		}).WithStall(chaosStall).ScheduleFault(faults.ShardBlackout, "shard0", p.blackout...)
	}
	var frames []int
	for i, ev := range p.events {
		if ev.kind == evFrame {
			frames = append(frames, i)
		}
	}
	for _, c := range pickChecks(rng, len(frames)) {
		p.checks = append(p.checks, frames[c])
	}
	return p
}

// pickChecks picks 2×checked distinct indices in [0, n): the reference
// check uses the first `checked` of them that were served by the monitored
// pipeline (chaos degrades some frames).
func pickChecks(rng *rand.Rand, n int) []int {
	k := 2 * checked
	if k > n {
		k = n
	}
	idx := rng.Perm(n)[:k]
	sort.Ints(idx)
	return idx
}

// vehicleID names vehicle v; the Router shards on it.
func vehicleID(v int) string { return fmt.Sprintf("uav-%02d", v) }

// faultPoints are the injection points a chaos fleet consults: each vehicle
// (transient faults) and each shard (blackouts).
func faultPoints(shards int) []string {
	var pts []string
	for v := 0; v < vehicles; v++ {
		pts = append(pts, vehicleID(v))
	}
	for s := 0; s < shards; s++ {
		pts = append(pts, shardName(s))
	}
	return pts
}

func shardName(s int) string { return fmt.Sprintf("shard%d", s) }
