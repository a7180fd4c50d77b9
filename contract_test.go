package safeland

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"safeland/internal/core"
	"safeland/internal/faults"
	"safeland/internal/imaging"
)

// contractSelector is FuzzServingContract's stub backend: it rejects a
// malformed frame as the real backends do — no frame, no scale, or an odd
// width, through the same request check the Engine runs before its fault
// points — works for HomeX microseconds while honoring ctx, and answers
// with contractResult, whose candidate count is the request's MPP, so each
// response names its request.
type contractSelector struct{}

func (contractSelector) Name() string { return "contract-stub" }

func (contractSelector) checkRequest(req SelectRequest) error {
	img, _, err := req.frame()
	if err == nil && img.W%2 != 0 {
		err = fmt.Errorf("%w: odd width %d", errBadRequest, img.W)
	}
	return err
}

func (s contractSelector) Select(ctx context.Context, req SelectRequest) (core.Result, error) {
	if err := s.checkRequest(req); err != nil {
		return core.Result{}, err
	}
	if err := sleepCtx(ctx, time.Duration(req.HomeX)*time.Microsecond); err != nil {
		return core.Result{}, err
	}
	return contractResult(req), nil
}

func contractResult(req SelectRequest) core.Result {
	return core.Result{Confirmed: true, State: core.Landing, CandidateCount: int(req.MPP)}
}

// contractLedger tallies the responses a fuzzed run received, for the
// reconciliation with EngineStats.
type contractLedger struct {
	mu                                         sync.Mutex
	selects, failed, degraded, frames, retried int64
}

// contractCall is what the checker knows of one call: its request and
// context, and whether it was a session advance on a session its caller
// had already closed.
type contractCall struct {
	ctx           context.Context
	req           SelectRequest
	session       bool
	sessionClosed bool
}

// check asserts that one response is exactly one of the contract's
// outcomes, and enters it in the ledger.
func (l *contractLedger) check(t *testing.T, degrade bool, closing *atomic.Bool, c contractCall,
	res core.Result, degraded bool, cause string, retried int, err error) {
	t.Helper()
	l.mu.Lock()
	if !c.session {
		l.selects++
		if err != nil {
			l.failed++
		}
	} else if err == nil {
		l.frames++
	}
	if degraded {
		l.degraded++
	}
	l.retried += int64(retried)
	l.mu.Unlock()

	if retried > 1 || (!degrade && retried > 0) {
		t.Errorf("request %v retried %d times (degraded mode %v)", c.req.MPP, retried, degrade)
	}
	rejected := contractSelector{}.checkRequest(c.req)
	switch {
	case err != nil && degraded:
		t.Errorf("request %v: error %v on a degraded response", c.req.MPP, err)
	case degraded && rejected != nil:
		t.Errorf("request %v: degraded answer (cause %q) to a request the backend rejects: %v", c.req.MPP, cause, rejected)
	case err == nil && !degraded:
		if !reflect.DeepEqual(res, contractResult(c.req)) {
			t.Errorf("request %v: result %+v is not the selector's", c.req.MPP, res)
		}
	case err == nil:
		if !degrade || res.Confirmed || res.State != core.Degraded {
			t.Errorf("request %v: degraded answer Confirmed=%v State=%v in degraded mode %v", c.req.MPP, res.Confirmed, res.State, degrade)
		}
		switch cause {
		case "selector-error", "replica-stall", "shard-blackout", "preempted":
		default:
			t.Errorf("request %v: degraded with cause %q", c.req.MPP, cause)
		}
	case c.ctx.Err() != nil && errors.Is(err, c.ctx.Err()):
	case errors.Is(err, errBadRequest) && rejected != nil:
	case errors.Is(err, ErrClosed) && closing.Load():
	case errors.Is(err, ErrSessionClosed) && c.sessionClosed:
	case !degrade && faults.AsInjected(err) != nil:
	case !degrade && c.session && errors.Is(err, ErrPreempted):
	default:
		t.Errorf("request %v (session %v): error %v is outside the contract (degraded mode %v, caller ctx %v)",
			c.req.MPP, c.session, err, degrade, c.ctx.Err())
	}
}

// FuzzServingContract fuzzes the Figure 1 serving contract over stub
// selectors (no model): 1–3 workers, degraded mode on or off, a fault
// schedule, and four concurrent clients — one issuing Selects, three each
// advancing a session with its own safety trigger — whose calls include
// malformed requests, caller cancellations before and during a call, and
// deadlines, while triggers fire, sessions close and the engine closes.
// Every response must be exactly one of: the Selector's result; a degraded
// FT answer, never confirmed, with a cause, and never to a request the
// backend rejects; an error the caller caused (its context's error, a
// malformed request, ErrClosed, ErrSessionClosed); or, with degraded mode
// off only, an injected fault or ErrPreempted.
// EngineStats must reconcile with the responses, and every worker must be
// back in the pool once Close has returned.
//
// schedule is read in byte pairs, each scheduling one fault: the first
// byte picks the kind and, for the attempt-scoped kinds, the point (the
// Select client's shard or one vehicle), the second the frame. Each byte
// of ops is one call: its value mod 4 picks the client, the rest the call.
func FuzzServingContract(f *testing.F) {
	f.Add(uint8(0), false, []byte{}, []byte{0, 1, 2, 3, 4, 5, 6, 7, 36, 37, 38, 39, 8, 9, 10, 11})
	f.Add(uint8(1), true, []byte{2, 0, 2, 1, 0, 2, 3, 0, 6, 1}, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add(uint8(0), true, []byte{5, 0, 2, 0}, []byte{25, 4, 5, 6, 26, 4, 5, 6, 12, 16, 20, 24, 8, 9, 10, 11})
	f.Add(uint8(2), false, []byte{2, 1, 3, 0, 4, 1}, []byte{5, 6, 7, 25, 4, 5, 6, 7, 13, 14, 15, 17, 18, 19, 28})
	f.Add(uint8(0), false, []byte{}, []byte{25, 5, 6, 4, 5, 6, 7, 4, 5, 6})
	f.Add(uint8(1), true, []byte{0, 0, 1, 1, 2, 2}, []byte{12, 13, 14, 15, 20, 21, 22, 23, 1, 2, 3, 28, 4, 5, 6, 7})
	// A malformed Select on a blacked-out frame in degraded mode: the
	// malformed request, not the blackout, is the answer.
	f.Add(uint8(1), true, []byte{2, 0}, []byte{40})
	// A session frame whose caller cancelled, on a blacked-out frame in
	// degraded mode: the caller's context error is the answer.
	f.Add(uint8(0), true, []byte{2, 0}, []byte{13})
	// An odd-width Select and an odd-width session frame, each on a
	// blacked-out frame 0 in degraded mode: the malformed request, not the
	// blackout, is the answer.
	f.Add(uint8(0), true, []byte{2, 0}, []byte{72})
	f.Add(uint8(0), true, []byte{2, 0}, []byte{73})
	f.Fuzz(func(t *testing.T, workers uint8, degrade bool, schedule, ops []byte) {
		const clients, maxOps, maxFaults = 4, 64, 8
		points := []string{"shard", "v1", "v2", "v3"}
		inj := faults.NewInjector(1, faults.Rates{})
		for i := 0; i+1 < len(schedule) && i < 2*maxFaults; i += 2 {
			kind := []faults.Kind{faults.SelectorError, faults.ReplicaStall, faults.ShardBlackout}[schedule[i]%3]
			point := points[(schedule[i]/3)%clients]
			if kind == faults.ShardBlackout {
				point = "shard"
			}
			inj.ScheduleFault(kind, point, int(schedule[i+1]%16))
		}
		eng, err := NewEngine(WithSystem(stubSystem()), WithWorkers(1+int(workers%3)),
			WithSelector(func(*System) (Selector, error) { return contractSelector{}, nil }),
			WithShardName("shard"), WithFaultInjector(inj), WithDegradedFallback(degrade),
			WithRetryBackoff(time.Microsecond, 10*time.Microsecond))
		if err != nil {
			t.Fatal(err)
		}
		if len(ops) > maxOps {
			ops = ops[:maxOps]
		}

		var ledger contractLedger
		var closing atomic.Bool
		var tags atomic.Int64
		sessions, triggers := make([]*Session, clients), make([]*SafetyTrigger, clients)
		for c := 1; c < clients; c++ {
			triggers[c] = NewSafetyTrigger()
			if sessions[c], err = eng.NewSession(points[c], WithSessionTrigger(triggers[c])); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			sess, trig := sessions[c], triggers[c]
			wg.Add(1)
			go func() {
				defer wg.Done()
				sessionClosed := false
				for _, b := range ops {
					if int(b)%clients != c {
						continue
					}
					op := b / clients
					req := SelectRequest{Image: imaging.NewImage(8, 8), MPP: float64(tags.Add(1))}
					ctx := context.Background()
					var cancel context.CancelFunc = func() {}
					switch op % 8 {
					case 1:
						req.HomeX = 200
					case 2: // malformed: no frame, no scale, or an odd width
						switch op / 8 % 3 {
						case 0:
							req.Image = nil
						case 1:
							req.MPP = 0
						default:
							req.Image = imaging.NewImage(7, 8)
						}
					case 3: // cancelled before the call
						ctx, cancel = context.WithCancel(ctx)
						cancel()
					case 4: // cancelled mid-call
						req.HomeX = 300
						ctx, cancel = context.WithCancel(ctx)
						time.AfterFunc(100*time.Microsecond, cancel)
					case 5: // a deadline shorter than the work
						req.HomeX = 300
						ctx, cancel = context.WithTimeout(ctx, 100*time.Microsecond)
					case 6:
						if sess != nil {
							trig.Trigger("fuzz")
							continue
						}
						req.HomeX = 50
					case 7:
						if sess != nil {
							sessionClosed = true
							sess.Close()
						} else {
							closing.Store(true)
							eng.Close()
						}
						continue
					}
					call := contractCall{ctx: ctx, req: req, session: sess != nil, sessionClosed: sessionClosed}
					if sess == nil {
						r := eng.Select(ctx, req)
						ledger.check(t, degrade, &closing, call, r.Result, r.Degraded, r.DegradedCause, r.Retried, r.Err)
					} else {
						r := sess.Advance(ctx, req)
						ledger.check(t, degrade, &closing, call, r.Result, r.Degraded, r.DegradedCause, r.Retried, r.Err)
					}
					cancel()
				}
				if sess != nil {
					sess.Close()
				}
			}()
		}
		wg.Wait()
		closing.Store(true)
		eng.Close()

		st := eng.Stats()
		if st.Requests != ledger.selects || st.Failed != ledger.failed || st.Degraded != ledger.degraded ||
			st.Frames != ledger.frames || st.Retried != ledger.retried {
			t.Errorf("stats Requests/Failed/Degraded/Frames/Retried = %d/%d/%d/%d/%d, responses say %d/%d/%d/%d/%d",
				st.Requests, st.Failed, st.Degraded, st.Frames, st.Retried,
				ledger.selects, ledger.failed, ledger.degraded, ledger.frames, ledger.retried)
		}
		if st.Served > st.Requests || st.Sessions != 0 {
			t.Errorf("stats Served=%d of %d requests, %d sessions open after every Close", st.Served, st.Requests, st.Sessions)
		}
		if idle := eng.pool.idle(); idle != eng.Workers() {
			t.Errorf("closed engine has %d idle of %d workers", idle, eng.Workers())
		}
	})
}
