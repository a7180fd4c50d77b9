// Package faults is the deterministic chaos layer of the serving stack:
// a seed-keyed fault injector with named injection points threaded through
// the serving layer, so the fault-tolerance evidence the
// paper's argument rests on (Figure 1 escalates a monitor refusal to the
// fault-tolerant maneuver; Guerin et al. 2022 evaluate monitoring under
// injected runtime faults) can be reproduced byte-for-byte.
//
// Determinism is structural, not procedural: whether a fault fires at an
// injection point is a pure function of (seed, kind, point, frame) — a
// stateless hash, no mutable RNG — so the chaos sequence cannot be
// perturbed by query order, goroutine scheduling, or how many other points
// consult the same injector. The full plan of a run is therefore
// enumerable up front (Schedule), which is what makes a chaos experiment a
// *published* fault schedule rather than a dice roll.
package faults

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// Kind names one class of injected fault. Each kind maps to a fixed
// injection point in the serving stack; the set is closed by design — a
// chaos schedule over unknown fault classes would not be reviewable
// evidence.
type Kind int

const (
	// SelectorError fails one selection attempt at the selector backend:
	// the perception stack reports an error instead of a result. Transient:
	// a retry of the same frame succeeds (the serving layer injects it on
	// the first attempt only).
	SelectorError Kind = iota
	// ReplicaStall delays one selection attempt on its worker replica (the
	// injector's configured stall duration) and then fails it, modeling a
	// replica that blew its compute budget. Transient like SelectorError.
	ReplicaStall
	// A kind's value keys the firing hash, so a retired kind keeps its slot
	// and published schedules stay byte-identical.
	_
	// ShardBlackout takes the whole shard down for the frame: every
	// attempt on the shard fails, retries included, so the serving layer
	// must degrade (or the fleet layer must route around the shard).
	ShardBlackout
)

// Kinds returns every fault kind, in schedule order.
func Kinds() []Kind {
	return []Kind{SelectorError, ReplicaStall, ShardBlackout}
}

// String names the kind as it appears in published schedules.
func (k Kind) String() string {
	switch k {
	case SelectorError:
		return "selector-error"
	case ReplicaStall:
		return "replica-stall"
	case ShardBlackout:
		return "shard-blackout"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Transient reports whether a retry of the same frame can outrun the
// fault: true for the attempt-scoped kinds, false for ShardBlackout,
// which holds for the whole frame.
func (k Kind) Transient() bool { return k != ShardBlackout }

// Rates sets the per-(point, frame) firing probability of each kind, in
// [0, 1]. The zero value injects nothing.
type Rates struct {
	SelectorError float64
	ReplicaStall  float64
	ShardBlackout float64
}

func (r Rates) rate(k Kind) float64 {
	switch k {
	case SelectorError:
		return r.SelectorError
	case ReplicaStall:
		return r.ReplicaStall
	case ShardBlackout:
		return r.ShardBlackout
	default:
		return 0
	}
}

// Error is the error an injected fault surfaces as. Serving layers match
// it with errors.As to classify the failure (transient vs frame-wide) and
// to report the cause on a degraded response.
type Error struct {
	Kind  Kind
	Point string
	Frame int
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("faults: injected %s at %s/frame %d", e.Kind, e.Point, e.Frame)
}

// AsInjected unwraps an injected-fault error, nil when err is not one.
func AsInjected(err error) *Error {
	var fe *Error
	if errors.As(err, &fe) {
		return fe
	}
	return nil
}

// Injector decides, deterministically, which faults fire where. Build it
// with NewInjector; the zero value and a nil *Injector inject nothing, so
// fault-free serving paths need no guard beyond a nil check. An Injector
// is immutable after the Schedule* calls that set it up and safe for
// concurrent use from every shard of a fleet.
type Injector struct {
	seed  int64
	rates Rates
	stall time.Duration
	// scheduled holds the explicitly scheduled faults, keyed exactly like
	// the hash decision — the two compose by OR.
	scheduled map[fireKey]bool
}

type fireKey struct {
	kind  Kind
	point string
	frame int
}

// NewInjector returns an injector firing each kind with the given rates,
// keyed by seed: two injectors with the same seed and rates answer every
// Fire query identically, in any order, from any number of goroutines.
func NewInjector(seed int64, rates Rates) *Injector {
	return &Injector{seed: seed, rates: rates}
}

// Seed returns the injector's seed.
func (in *Injector) Seed() int64 {
	if in == nil {
		return 0
	}
	return in.seed
}

// WithStall sets the real wall-clock delay a ReplicaStall imposes before
// failing the attempt (0, the default, fails immediately — outputs are
// identical either way, the stall only burns time). Returns the injector
// for chaining during setup; not safe once the injector is being queried.
func (in *Injector) WithStall(d time.Duration) *Injector {
	in.stall = d
	return in
}

// Stall returns the configured ReplicaStall delay.
func (in *Injector) Stall() time.Duration {
	if in == nil {
		return 0
	}
	return in.stall
}

// ScheduleFault explicitly schedules kind to fire at (point, frame), in
// addition to anything the rates decide. Explicit entries keep the same
// determinism contract (they are part of the published schedule) and let
// tests and experiments write exact fault windows — "shard0 blacks out
// for frames 1–3" — that a rate cannot express.
func (in *Injector) ScheduleFault(kind Kind, point string, frames ...int) *Injector {
	if in.scheduled == nil {
		in.scheduled = make(map[fireKey]bool)
	}
	for _, f := range frames {
		in.scheduled[fireKey{kind, point, f}] = true
	}
	return in
}

// Fire reports whether kind fires at the named injection point on the
// given frame: a pure function of (seed, kind, point, frame) plus the
// explicit schedule. A nil injector never fires.
func (in *Injector) Fire(kind Kind, point string, frame int) bool {
	if in == nil {
		return false
	}
	if in.scheduled[fireKey{kind, point, frame}] {
		return true
	}
	rate := in.rates.rate(kind)
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	return unit(in.seed, uint64(kind), point, uint64(frame)) < rate
}

// Errorf returns the injected-fault error for a Fire that reported true.
func (in *Injector) Errorf(kind Kind, point string, frame int) error {
	return &Error{Kind: kind, Point: point, Frame: frame}
}

// Entry is one scheduled fault occurrence in a published plan.
type Entry struct {
	Frame int
	Point string
	Kind  Kind
}

// Schedule enumerates every fault the injector will fire over the given
// points and frames [0, frames): the published fault plan of a chaos run.
// Order is frame-major, then point (input order), then kind — stable, so
// the printed schedule is byte-reproducible.
func (in *Injector) Schedule(points []string, frames int) []Entry {
	if in == nil {
		return nil
	}
	var out []Entry
	for f := 0; f < frames; f++ {
		for _, p := range points {
			for _, k := range Kinds() {
				if in.Fire(k, p, f) {
					out = append(out, Entry{Frame: f, Point: p, Kind: k})
				}
			}
		}
	}
	return out
}

// FormatSchedule renders a plan one "frame N: kind@point" line per entry,
// sorted by the Schedule order it was produced in. An empty plan renders
// as a single "(no faults scheduled)" line.
func FormatSchedule(entries []Entry) string {
	if len(entries) == 0 {
		return "  (no faults scheduled)\n"
	}
	s := ""
	for _, e := range entries {
		s += fmt.Sprintf("  frame %d: %s@%s\n", e.Frame, e.Kind, e.Point)
	}
	return s
}

// Backoff returns the delay before the one retry of the work identified by
// key: base plus a deterministic jitter in [0, 50%) of base derived from
// (seed, key), capped at max. Deterministic jitter keeps chaos runs
// reproducible while still decorrelating the retries of a fleet —
// different vehicles hash to different jitter.
func Backoff(seed int64, key string, base, max time.Duration) time.Duration {
	if base <= 0 {
		return 0
	}
	return min(base+time.Duration(unit(seed, ^uint64(0), key, 0)*0.5*float64(base)), max)
}

// unit hashes (seed, tag, point, frame) into a uniform float64 in [0, 1)
// with FNV-1a over the raw bytes. 53 mantissa bits of the hash become the
// fraction, so the decision threshold is exact for any rate.
func unit(seed int64, tag uint64, point string, frame uint64) float64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(seed))
	mix(tag)
	for i := 0; i < len(point); i++ {
		h ^= uint64(point[i])
		h *= prime64
	}
	mix(frame)
	return float64(h>>11) / float64(1<<53)
}

// SortEntries orders a plan frame-major, then point, then kind — the
// canonical order for diffing two published schedules.
func SortEntries(entries []Entry) {
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.Frame != b.Frame {
			return a.Frame < b.Frame
		}
		if a.Point != b.Point {
			return a.Point < b.Point
		}
		return a.Kind < b.Kind
	})
}
