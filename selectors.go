package safeland

import (
	"context"
	"errors"
	"fmt"
	"math"

	"safeland/internal/baseline"
	"safeland/internal/core"
	"safeland/internal/imaging"
)

// Selector is a pluggable landing-zone selection backend behind the Engine
// API. A Selector instance is driven by at most one goroutine at a time;
// the Engine builds one instance per worker through a SelectorFactory, so
// implementations may keep per-instance scratch state but must not share
// mutable state between instances.
//
// Select should honor ctx promptly where the work is long enough to
// matter: the perception-backed backends (pipeline, hybrid) thread the
// context through the segmentation forward pass and every Monte-Carlo
// monitor trial, so a cancelled request stops within one network layer's
// work and returns ctx's error. The cheap geometric baselines run their
// window scans to completion and rely on the Engine failing fast on
// requests that are cancelled while still queued.
type Selector interface {
	// Name identifies the backend in response metadata and logs.
	Name() string
	// Select picks and (where the backend supports it) verifies a landing
	// zone for one request.
	Select(ctx context.Context, req SelectRequest) (core.Result, error)
}

// SelectorFactory builds one Selector instance for one Engine worker. The
// argument is that worker's private System replica: its model, monitor and
// pipeline are owned by the worker, so the factory may wire them into the
// backend without any locking.
type SelectorFactory func(sys *System) (Selector, error)

// errBadRequest marks request-validation failures: they are the caller's
// fault, so degraded mode answers them with an error, never a fallback.
var errBadRequest = errors.New("safeland: malformed request")

// requestChecker is implemented by the built-in backends: checkRequest
// returns the errBadRequest error Select would return for a malformed
// request, or nil. It reads only what the backend fixed at construction,
// so the Engine calls it on one worker's instance from any goroutine, once
// per call and before the fault points of its attempt loop: a malformed
// frame is the caller's error even when a fault would fire first. A custom
// Selector validates inside Select.
type requestChecker interface {
	checkRequest(req SelectRequest) error
}

// frame resolves the image and scale of a request, defaulting from the
// attached scene when the caller supplied one.
func (r SelectRequest) frame() (*imaging.Image, float64, error) {
	img, mpp := r.Image, r.MPP
	if r.Scene != nil {
		if img == nil {
			img = r.Scene.Image
		}
		if mpp <= 0 {
			mpp = r.Scene.MPP
		}
	}
	if img == nil {
		return nil, 0, fmt.Errorf("%w: neither Image nor Scene", errBadRequest)
	}
	if mpp <= 0 {
		return nil, 0, fmt.Errorf("%w: MPP must be positive (have %v)", errBadRequest, mpp)
	}
	return img, mpp, nil
}

// checkSize rejects, as a malformed request, a frame the pipeline's model
// cannot segment (odd dims on the stride-2 stem), which would otherwise
// panic in the worker.
func checkSize(p *core.Pipeline, img *imaging.Image) error {
	if err := p.Model.CheckSize(img); err != nil {
		return fmt.Errorf("%w: %v", errBadRequest, err)
	}
	return nil
}

// PipelineSelector returns the default backend: the paper's Figure 2
// monitored pipeline (deterministic MSDnet, Bayesian monitor, Decision
// Module) running on the worker's model replica.
func PipelineSelector() SelectorFactory {
	return func(sys *System) (Selector, error) {
		if sys == nil || sys.Pipeline == nil {
			return nil, fmt.Errorf("safeland: pipeline selector needs a trained system")
		}
		return &pipelineSelector{pipe: sys.Pipeline}, nil
	}
}

type pipelineSelector struct{ pipe *core.Pipeline }

func (s *pipelineSelector) Name() string { return "msdnet-monitor" }

func (s *pipelineSelector) checkRequest(req SelectRequest) error {
	img, _, err := req.frame()
	if err != nil {
		return err
	}
	return checkSize(s.pipe, img)
}

func (s *pipelineSelector) Select(ctx context.Context, req SelectRequest) (core.Result, error) {
	if err := s.checkRequest(req); err != nil {
		return core.Result{}, err
	}
	img, mpp, _ := req.frame()
	zones := s.pipe.Zones
	zones.HomeX, zones.HomeY = req.HomeX, req.HomeY
	return s.pipe.SelectWithConfigCtx(ctx, img, mpp, zones)
}

// HybridSelector returns the GIS-fused backend: vision candidates filtered
// and re-ranked by the static risk map before monitor verification (the
// paper's future-work direction). Requests must carry a Scene — the static
// map is built from its layout.
func HybridSelector() SelectorFactory {
	return func(sys *System) (Selector, error) {
		if sys == nil || sys.Pipeline == nil {
			return nil, fmt.Errorf("safeland: hybrid selector needs a trained system")
		}
		return &hybridSelector{h: core.NewHybrid(sys.Pipeline)}, nil
	}
}

type hybridSelector struct{ h *core.Hybrid }

func (s *hybridSelector) Name() string { return "hybrid-gis" }

func (s *hybridSelector) checkRequest(req SelectRequest) error {
	if req.Scene == nil {
		return fmt.Errorf("%w: %s selector requires SelectRequest.Scene", errBadRequest, s.Name())
	}
	return checkSize(s.h.Pipeline, req.Scene.Image)
}

func (s *hybridSelector) Select(ctx context.Context, req SelectRequest) (core.Result, error) {
	if err := s.checkRequest(req); err != nil {
		return core.Result{}, err
	}
	zones := s.h.Pipeline.Zones
	zones.HomeX, zones.HomeY = req.HomeX, req.HomeY
	return s.h.SelectWithConfigCtx(ctx, req.Scene, zones)
}

// BaselineSelector adapts one of the internal/baseline survey methods
// (canny edge density, flatness, tile classifier) to the Engine API, so
// the related-work comparisons run behind the same request/response
// surface as the monitored pipeline. The provided selector is shared by
// all workers; the bundled implementations only read their configuration
// during Select, which makes that safe.
//
// Baseline methods verify nothing: a pick is reported as a confirmed
// result with a single synthetic candidate and no monitor trials, and
// Result.Pred stays nil.
func BaselineSelector(sel baseline.Selector) SelectorFactory {
	return func(sys *System) (Selector, error) {
		if sel == nil {
			return nil, fmt.Errorf("safeland: nil baseline selector")
		}
		// Share the monitored pipeline's zone sizing so a cross-backend
		// comparison picks same-size zones.
		zones := core.DefaultZoneConfig()
		if sys != nil && sys.Pipeline != nil {
			zones = sys.Pipeline.Zones
		}
		return &baselineSelector{sel: sel, zones: zones}, nil
	}
}

type baselineSelector struct {
	sel   baseline.Selector
	zones core.ZoneConfig
}

func (s *baselineSelector) Name() string { return "baseline-" + s.sel.Name() }

func (s *baselineSelector) checkRequest(req SelectRequest) error {
	if req.Scene == nil {
		return fmt.Errorf("%w: %s selector requires SelectRequest.Scene", errBadRequest, s.Name())
	}
	_, _, err := req.frame()
	return err
}

func (s *baselineSelector) Select(_ context.Context, req SelectRequest) (core.Result, error) {
	if err := s.checkRequest(req); err != nil {
		return core.Result{}, err
	}
	_, mpp, _ := req.frame()
	zonePx := int(math.Ceil(s.zones.ZoneSizeM / mpp))
	z, ok := s.sel.Select(req.Scene, zonePx)
	if !ok {
		return core.Result{State: core.Aborted}, nil
	}
	return core.Result{
		Confirmed:      true,
		State:          core.Landing,
		CandidateCount: 1,
		Zone: core.Candidate{
			X0: z.X0, Y0: z.Y0, SizePx: z.Size,
			// Baseline scores rank low-is-better; negate so higher stays
			// better like the pipeline's.
			Score: -z.Score,
		},
	}, nil
}
