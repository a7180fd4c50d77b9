package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"safeland"
	"safeland/internal/core"
	"safeland/internal/imaging"
	"safeland/internal/nn"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the recorder's origin; spans of one request share req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. Untraced runs have
// none, so they pay no tracing cost.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	nextID int64
	spans  []span
}

// newRecorder returns a recorder whose own span ids start above reserved,
// leaving the ids up to reserved to callers that number spans themselves.
func newRecorder(origin time.Time, reserved int64) *recorder {
	return &recorder{origin: origin, nextID: reserved}
}

// id allocates a span id, for spans whose children are recorded before
// they are.
func (r *recorder) id() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return r.nextID
}

// add records a finished span; id 0 allocates one.
func (r *recorder) add(id, parent, req int64, name string, start, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id == 0 {
		r.nextID++
		id = r.nextID
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(r.origin)), End: int64(end.Sub(r.origin))})
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval covered by the union of its
// children (children may overlap each other).
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered measures the union of the children's intervals clipped to s.
func covered(s span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = s.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// traceKey carries the request's trace identity into the Selector, which
// receives the caller's context from Engine.Select.
type traceKey struct{}

type traceIDs struct{ req, parent int64 }

func withTrace(ctx context.Context, req, parent int64) context.Context {
	return context.WithValue(ctx, traceKey{}, traceIDs{req, parent})
}

// tracedSelector runs the monitored pipeline's stages through their public
// calls with a span around each: segmentation, the candidate search with the
// pipeline's buffer-relaxation ladder, one monitor verdict per candidate crop
// and the Decision Module. Its Results equal core.Pipeline's field for field;
// the reference check compares them on every traced run.
type tracedSelector struct {
	pipe *core.Pipeline
	rec  *recorder
}

func tracedSelectorFactory(rec *recorder) safeland.SelectorFactory {
	return func(sys *safeland.System) (safeland.Selector, error) {
		return &tracedSelector{pipe: sys.Pipeline, rec: rec}, nil
	}
}

func (s *tracedSelector) Name() string { return "msdnet-monitor-traced" }

func (s *tracedSelector) Select(ctx context.Context, req safeland.SelectRequest) (core.Result, error) {
	ids, traced := ctx.Value(traceKey{}).(traceIDs)
	stage := func(name string, start time.Time) {
		if traced {
			s.rec.add(0, ids.parent, ids.req, name, start, time.Now())
		}
	}
	p := s.pipe
	img, mpp := req.Image, req.MPP
	t := time.Now()
	pred, err := p.Model.PredictCtx(ctx, img)
	stage("segment.predict", t)
	if err != nil {
		return core.Result{}, err
	}
	t = time.Now()
	cands, used := candidateLadder(pred, mpp, p.Zones)
	stage("core.candidates", t)
	res := core.Result{Pred: pred, CandidateCount: len(cands), UsedBufferM: used}
	dm := core.NewDecisionModule(p.MaxTrials)
	for _, cand := range cands {
		x0, y0, size := cand.CropRect(img.W, img.H)
		t = time.Now()
		v, err := p.Monitor.VerifyRegionCtx(ctx, img.Crop(x0, y0, size, size), p.Rule)
		stage("monitor.verify", t)
		if err != nil {
			return res, err
		}
		res.Trials = append(res.Trials, core.Trial{Candidate: cand, Verdict: v})
		t = time.Now()
		st := dm.Offer(v)
		stage("core.decision", t)
		switch st {
		case core.Landing:
			res.Confirmed, res.Zone, res.State = true, cand, core.Landing
			return res, nil
		case core.Aborted:
			res.State = core.Aborted
			return res, nil
		}
	}
	t = time.Now()
	res.State = dm.Exhausted()
	stage("core.decision", t)
	return res, nil
}

// candidateLadder is core.Pipeline's candidate search: when the drift
// buffer fits nowhere it is relaxed stepwise, never below a quarter zone.
func candidateLadder(pred *imaging.LabelMap, mpp float64, cfg core.ZoneConfig) ([]core.Candidate, float64) {
	zones := cfg
	var cands []core.Candidate
	for _, scale := range []float64{1, 0.66, 0.4, 0.2} {
		zones.BufferM = cfg.BufferM * scale
		if zones.BufferM < zones.ZoneSizeM/4 {
			zones.BufferM = zones.ZoneSizeM / 4
		}
		if cands = core.Candidates(pred, mpp, zones); len(cands) > 0 {
			break
		}
	}
	return cands, zones.BufferM
}

// layerTimer wraps one network layer so a replay records a span around its
// forward pass; Walk lets dropout-mode and reseed walks reach the layer.
type layerTimer struct {
	nn.Layer
	name string
	rep  *replay
}

func (t *layerTimer) Forward(x *nn.Tensor, train bool) *nn.Tensor {
	parent := t.rep.parent
	id := t.rep.rec.id()
	t.rep.parent = id
	start := time.Now()
	out := t.Layer.Forward(x, train)
	t.rep.rec.add(id, parent, t.rep.pass, t.name, start, time.Now())
	t.rep.parent = parent
	return out
}

func (t *layerTimer) Walk(v nn.Visitor) { nn.Walk(t.Layer, v) }

// replay drives a layer-wrapped network replica one forward pass at a time
// (single goroutine); each pass is one trace request.
type replay struct {
	rec    *recorder
	parent int64
	pass   int64
}
