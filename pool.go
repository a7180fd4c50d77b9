package safeland

import (
	"context"
	"sync"
	"sync/atomic"

	"safeland/internal/core"
)

// worker is one pool slot: the configured backend and the model replica it
// was built on, whose monitor re-verifies a session's prior zone.
type worker struct {
	sel  Selector
	pipe *core.Pipeline
	// preempt cancels the routine session frame holding the worker; nil
	// while other work holds it or once the frame is preempted. It is read
	// only while the worker is held, and guarded by the pool's mutex.
	preempt context.CancelCauseFunc
}

// waiter is one queued acquire: the channel its worker is handed over on,
// and the preempt func the worker keeps while the waiter holds it.
type waiter struct {
	got     chan *worker
	preempt context.CancelCauseFunc
}

// replicaPool hands out the engine's workers in two priority classes, and
// it is the one record of who holds them. Waiters are FIFO within a class;
// a released worker always goes to a waiting safety-class request before
// any routine one, so a safety-switch activation jumps the whole routine
// queue. A safety-class acquire that finds no worker free also preempts
// the oldest routine session frame holding one: it picks the frame in the
// critical section it queues in, so the worker that frame frees is the
// safety request's. The pool never creates or destroys workers, and the
// Engine's determinism does not depend on which worker serves which
// request (the monitor reseeds per call).
type replicaPool struct {
	mu      sync.Mutex
	free    []*worker
	held    []*worker // held workers, oldest acquisition first
	safety  []*waiter
	routine []*waiter
	// preempted counts routine session frames cancelled for a safety-class
	// acquire (EngineStats.Preempted).
	preempted atomic.Int64
}

func newReplicaPool(ws []*worker) *replicaPool {
	return &replicaPool{free: ws}
}

// acquire returns a free worker, queueing in the given class when none is
// free. preempt, non-nil for a routine session frame, stays with the
// worker while the frame holds it: a safety-class acquire may call it with
// ErrPreempted. A cancelled wait returns ctx's error; when cancellation
// races a hand-off, the worker is re-released (never leaked) and the wait
// still fails.
func (p *replicaPool) acquire(ctx context.Context, safety bool, preempt context.CancelCauseFunc) (*worker, error) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		w := p.free[n-1]
		p.free = p.free[:n-1]
		p.hold(w, preempt)
		p.mu.Unlock()
		return w, nil
	}
	wt := &waiter{got: make(chan *worker, 1), preempt: preempt}
	q := &p.routine
	var victim context.CancelCauseFunc
	if safety {
		q, victim = &p.safety, p.oldestPreempt()
	}
	*q = append(*q, wt)
	p.mu.Unlock()
	if victim != nil {
		// Cancelled only once queued, so the worker it frees is ours.
		victim(ErrPreempted)
	}

	select {
	case w := <-wt.got:
		return w, nil
	case <-ctx.Done():
		p.mu.Lock()
		removed := remove(q, wt)
		p.mu.Unlock()
		if !removed {
			// A release dequeued us before the cancellation landed; the
			// hand-off into the buffered channel completes, so take the
			// worker back out and return it to the pool.
			p.release(<-wt.got)
		}
		return nil, ctx.Err()
	}
}

// hold records w as held, with the preempt func of its holder; p.mu held.
func (p *replicaPool) hold(w *worker, preempt context.CancelCauseFunc) {
	w.preempt = preempt
	p.held = append(p.held, w)
}

// oldestPreempt takes, and counts as preempted, the preempt func of the
// routine session frame that has held its worker longest; nil when no
// routine session frame holds a worker. Cancelled with ErrPreempted, the
// frame aborts within one layer's work and releases the worker. p.mu held.
func (p *replicaPool) oldestPreempt() context.CancelCauseFunc {
	for _, w := range p.held {
		if cancel := w.preempt; cancel != nil {
			w.preempt = nil
			p.preempted.Add(1)
			return cancel
		}
	}
	return nil
}

// release hands the worker to the longest-waiting safety request, then the
// longest-waiting routine one, then back to the free list.
func (p *replicaPool) release(wk *worker) {
	p.mu.Lock()
	remove(&p.held, wk)
	var wt *waiter
	switch {
	case len(p.safety) > 0:
		wt, p.safety = p.safety[0], p.safety[1:]
	case len(p.routine) > 0:
		wt, p.routine = p.routine[0], p.routine[1:]
	default:
		p.free = append(p.free, wk)
	}
	if wt != nil {
		p.hold(wk, wt.preempt)
	}
	p.mu.Unlock()
	if wt != nil {
		wt.got <- wk
	}
}

// remove deletes the first v from *s, reporting whether it was there.
func remove[T comparable](s *[]T, v T) bool {
	for i, x := range *s {
		if x == v {
			*s = append((*s)[:i], (*s)[i+1:]...)
			return true
		}
	}
	return false
}

// idle returns how many workers are currently free. A quiescent pool must
// report its full worker count — the replica-leak check the chaos tests
// assert after hammering the engine.
func (p *replicaPool) idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}
