package safeland

import (
	"context"
	"sync"

	"safeland/internal/core"
)

// worker is one pool slot: the configured backend and the model replica it
// was built on, whose monitor re-verifies a session's prior zone.
type worker struct {
	sel  Selector
	pipe *core.Pipeline
}

// replicaPool hands out the engine's workers in two priority classes.
// Waiters are FIFO within a class; a released worker always goes to a
// waiting safety-class request before any routine one, so a safety-switch
// activation jumps the whole routine queue. The pool is a pure scheduler:
// it never creates or destroys workers, and the Engine's determinism does
// not depend on which worker serves which request (the monitor reseeds per
// call).
type replicaPool struct {
	mu      sync.Mutex
	free    []*worker
	safety  []chan *worker
	routine []chan *worker
}

func newReplicaPool(ws []*worker) *replicaPool {
	return &replicaPool{free: ws}
}

// tryAcquire returns a free worker without waiting, nil when none is free.
func (p *replicaPool) tryAcquire() *worker {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		w := p.free[n-1]
		p.free = p.free[:n-1]
		return w
	}
	return nil
}

// acquire returns a free worker, queueing in the given class when none is
// free. A cancelled wait returns ctx's error; when cancellation races a
// hand-off, the worker is re-released (never leaked) and the wait still
// fails.
func (p *replicaPool) acquire(ctx context.Context, safety bool) (*worker, error) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		w := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return w, nil
	}
	w := make(chan *worker, 1)
	q := &p.routine
	if safety {
		q = &p.safety
	}
	*q = append(*q, w)
	p.mu.Unlock()

	select {
	case got := <-w:
		return got, nil
	case <-ctx.Done():
		p.mu.Lock()
		removed := removeWaiter(q, w)
		p.mu.Unlock()
		if !removed {
			// A release dequeued us before the cancellation landed; the
			// hand-off into the buffered channel completes, so take the
			// worker back out and return it to the pool.
			p.release(<-w)
		}
		return nil, ctx.Err()
	}
}

// release hands the worker to the longest-waiting safety request, then the
// longest-waiting routine one, then back to the free list.
func (p *replicaPool) release(wk *worker) {
	p.mu.Lock()
	var w chan *worker
	switch {
	case len(p.safety) > 0:
		w, p.safety = p.safety[0], p.safety[1:]
	case len(p.routine) > 0:
		w, p.routine = p.routine[0], p.routine[1:]
	default:
		p.free = append(p.free, wk)
	}
	p.mu.Unlock()
	if w != nil {
		w <- wk
	}
}

func removeWaiter(q *[]chan *worker, w chan *worker) bool {
	for i, c := range *q {
		if c == w {
			*q = append((*q)[:i], (*q)[i+1:]...)
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
