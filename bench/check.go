package main

import (
	"context"
	"fmt"
	"reflect"

	"safeland"
	"safeland/internal/core"
)

// contractViolation returns why a response breaks the serving contract
// (Figure 1), or "" when it is exactly one of: a monitored result, a
// Degraded fallback that is not Confirmed and names its cause, or an error.
func contractViolation(s served) string {
	r := s.res
	switch {
	case s.err != nil:
		if s.degraded {
			return "error response marked Degraded"
		}
	case s.degraded:
		if r.Confirmed || r.State != core.Degraded || s.cause == "" {
			return fmt.Sprintf("degraded response confirmed=%v state=%v cause=%q", r.Confirmed, r.State, s.cause)
		}
	default:
		if r.State != core.Landing && r.State != core.Aborted {
			return fmt.Sprintf("monitored response in state %v", r.State)
		}
		if r.Confirmed != (r.State == core.Landing) {
			return fmt.Sprintf("monitored response confirmed=%v in state %v", r.Confirmed, r.State)
		}
		if r.Confirmed && (len(r.Trials) == 0 || !r.Trials[len(r.Trials)-1].Verdict.Confirmed) {
			return "confirmed zone without a confirming monitor verdict"
		}
	}
	return ""
}

// checkReferences recomputes up to `checked` of the kept monitored frames
// sequentially on a fresh replica: a full selection with
// core.Pipeline.SelectWithConfigCtx, or for a frame a session served by
// re-verifying its previous zone, monitor.Bayesian.VerifyRegionCtx on that
// zone's crop. It returns how many frames it checked and every mismatch.
func checkReferences(ctx context.Context, sys *safeland.System, outs []outcome) (int, []string, error) {
	rep, err := sys.Replica()
	if err != nil {
		return 0, nil, err
	}
	p := rep.Pipeline
	n := 0
	var bad []string
	for i, o := range outs {
		if !o.kept || o.err != nil || o.degraded {
			continue
		}
		if n == checked {
			break
		}
		n++
		img := o.frame.img
		if o.reused {
			r := o.res
			x0, y0, size := r.Zone.CropRect(img.W, img.H)
			v, err := p.Monitor.VerifyRegionCtx(ctx, img.Crop(x0, y0, size, size), p.Rule)
			if err != nil {
				return n, bad, err
			}
			if len(r.Trials) != 1 || r.Trials[0].Candidate != r.Zone || !reflect.DeepEqual(r.Trials[0].Verdict, v) || !v.Confirmed {
				bad = append(bad, fmt.Sprintf("event %d: re-verified zone differs from the sequential crop verdict", i))
			}
			continue
		}
		want, err := p.SelectWithConfigCtx(ctx, img, o.frame.mpp, p.Zones)
		if err != nil {
			return n, bad, err
		}
		if !reflect.DeepEqual(o.res, want) {
			bad = append(bad, fmt.Sprintf("event %d: result differs from the sequential pipeline (confirmed %v/%v, trials %d/%d)",
				i, o.res.Confirmed, want.Confirmed, len(o.res.Trials), len(want.Trials)))
		}
	}
	return n, bad, nil
}
