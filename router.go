package safeland

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
)

// Router shards descent sessions across several Engines by vehicle ID, so a
// fleet service scales past one worker pool: every vehicle hashes to a
// fixed home shard (FNV-1a mod shard count), keeping all frames of one
// descent — and the session's prior — on the same engine.
//
// Placement is health-aware: when the home shard rejects the vehicle —
// saturated (ErrSessionLimit) or breaker-open (ErrShardUnhealthy) — the
// router spills the session to the least-loaded healthy shard instead of
// surfacing the rejection. A spilled session is sticky for its lifetime
// (the Session binds to the engine that admitted it); the home shard's
// EngineStats.Spilled counts the vehicles it shed. Only when every shard
// rejects does NewSession fail, with the home shard's error.
type Router struct {
	engines []*Engine
}

// NewRouter builds a router over the given shards; at least one engine is
// required and none may be nil. The router does not own the engines —
// closing them remains the caller's job unless Close is used.
func NewRouter(engines ...*Engine) (*Router, error) {
	if len(engines) == 0 {
		return nil, fmt.Errorf("safeland: router needs at least one engine")
	}
	for i, e := range engines {
		if e == nil {
			return nil, fmt.Errorf("safeland: router engine %d is nil", i)
		}
	}
	return &Router{engines: append([]*Engine(nil), engines...)}, nil
}

// Shards returns the number of engines behind the router.
func (r *Router) Shards() int { return len(r.engines) }

// Engine returns the home shard of vehicleID; the mapping is stable for the
// router's lifetime. Spillover (NewSession) can place a vehicle's session
// elsewhere — Session.Vehicle plus the session's own engine binding track
// where it actually landed.
func (r *Router) Engine(vehicleID string) *Engine {
	h := fnv.New32a()
	h.Write([]byte(vehicleID))
	return r.engines[h.Sum32()%uint32(len(r.engines))]
}

// NewSession opens a descent stream on the vehicle's home shard, spilling
// to the least-loaded healthy shard when the home shard rejects it; see the
// Router doc for the placement contract and Engine.NewSession for the
// per-shard admission contract.
func (r *Router) NewSession(vehicleID string, opts ...SessionOption) (*Session, error) {
	home := r.Engine(vehicleID)
	sess, homeErr := home.NewSession(vehicleID, opts...)
	if homeErr == nil {
		return sess, nil
	}
	if !errors.Is(homeErr, ErrSessionLimit) && !errors.Is(homeErr, ErrShardUnhealthy) {
		return nil, homeErr
	}
	// Spillover: candidate shards ordered by open-session count (ties by
	// index, for determinism), unhealthy shards skipped without consuming
	// their breaker's cooldown observations.
	type cand struct {
		eng  *Engine
		load int64
		idx  int
	}
	cands := make([]cand, 0, len(r.engines)-1)
	for i, e := range r.engines {
		if e == home || !e.Healthy() {
			continue
		}
		cands = append(cands, cand{eng: e, load: e.sessions.Load(), idx: i})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].load != cands[b].load {
			return cands[a].load < cands[b].load
		}
		return cands[a].idx < cands[b].idx
	})
	for _, c := range cands {
		s, err := c.eng.NewSession(vehicleID, opts...)
		if err == nil {
			home.spilled.Add(1)
			return s, nil
		}
		if !errors.Is(err, ErrSessionLimit) && !errors.Is(err, ErrShardUnhealthy) {
			return nil, err
		}
	}
	// Every shard rejected: surface the home shard's rejection, which is
	// the one the vehicle's operator can reason about.
	return nil, homeErr
}

// Stats returns per-shard snapshots, index-aligned with the engines the
// router was built over.
func (r *Router) Stats() []EngineStats {
	out := make([]EngineStats, len(r.engines))
	for i, e := range r.engines {
		out[i] = e.Stats()
	}
	return out
}

// Close closes every shard (Engine.Close): each refuses new work and
// drains what it already took. It closes all shards even when one fails
// and returns the per-shard errors joined.
func (r *Router) Close() error {
	var errs []error
	for i, e := range r.engines {
		if err := e.Close(); err != nil {
			errs = append(errs, fmt.Errorf("safeland: closing router shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}
