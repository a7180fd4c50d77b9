package core

import (
	"context"

	"safeland/internal/riskmap"
	"safeland/internal/urban"
)

// Hybrid implements the paper's final future-work direction: "hybrid
// methods combining learning-based techniques with using public databases
// could be envisioned to improve emergency landing". It fuses the on-board
// vision pipeline with an a-priori GIS risk map: a candidate zone must
// satisfy the vision invariants (predicted-road buffer, landable majority,
// monitor confirmation) and additionally be feasible on the static map,
// with its ranking penalized by the mapped risk.
//
// The two sources fail independently — the camera misses what it cannot
// see (distribution shift), the database misses what is not mapped (live
// traffic, parked cars, crowds) — so their conjunction is strictly more
// conservative than either alone.
type Hybrid struct {
	Pipeline *Pipeline
	// StaticCfg configures the GIS layer weights.
	StaticCfg riskmap.StaticConfig
	// StaticWeight scales how strongly mapped risk demotes a candidate.
	StaticWeight float64
	// MaxStaticRisk rejects candidates whose mean mapped risk exceeds it.
	MaxStaticRisk float64
}

// NewHybrid wraps a pipeline with default GIS fusion settings.
func NewHybrid(p *Pipeline) *Hybrid {
	return &Hybrid{
		Pipeline:      p,
		StaticCfg:     riskmap.DefaultStaticConfig(),
		StaticWeight:  8,
		MaxStaticRisk: 0.5,
	}
}

// SelectAndVerify runs the fused selection on a scene with the pipeline's
// configured zone settings. It is shorthand for SelectWithConfig.
func (h *Hybrid) SelectAndVerify(scene *urban.Scene) Result {
	return h.SelectWithConfig(scene, h.Pipeline.Zones)
}

// SelectWithConfig runs the fused selection on a scene: vision candidates
// are filtered and re-ranked by the static risk map before the Bayesian
// monitor verifies them. The zone configuration is a per-call value;
// neither the hybrid nor its pipeline is mutated.
func (h *Hybrid) SelectWithConfig(scene *urban.Scene, cfg ZoneConfig) Result {
	res, _ := h.SelectWithConfigCtx(context.Background(), scene, cfg)
	return res
}

// SelectWithConfigCtx is SelectWithConfig with cooperative cancellation;
// the semantics mirror Pipeline.SelectWithConfigCtx, whose trial loop it
// runs with the static-map fusion as the candidate filter.
func (h *Hybrid) SelectWithConfigCtx(ctx context.Context, scene *urban.Scene, cfg ZoneConfig) (Result, error) {
	static := riskmap.NewWindows(riskmap.BuildStatic(scene.Layout, scene.Labels.W, scene.Labels.H, scene.MPP, h.StaticCfg))
	return h.Pipeline.selectCtx(ctx, scene.Image, scene.MPP, cfg, func(c []Candidate) []Candidate { return h.fuse(c, static) })
}

// fuse drops candidates the static map forbids and re-ranks the survivors.
func (h *Hybrid) fuse(cands []Candidate, static riskmap.Windows) []Candidate {
	kept := cands[:0:0]
	for _, c := range cands {
		mean, forbidden := static.Mean(c.X0, c.Y0, c.SizePx)
		if forbidden || mean > h.MaxStaticRisk {
			continue
		}
		c.Score -= h.StaticWeight * mean
		kept = append(kept, c)
	}
	// Candidates arrive sorted by vision score; the static penalty can
	// reorder them.
	for i := 1; i < len(kept); i++ {
		for j := i; j > 0 && kept[j].Score > kept[j-1].Score; j-- {
			kept[j], kept[j-1] = kept[j-1], kept[j]
		}
	}
	return kept
}

// PlanLanding implements uav.LandingPlanner with the fused selection. Like
// Pipeline.PlanLanding, a cancelled planning reports no zone.
func (h *Hybrid) PlanLanding(ctx context.Context, scene *urban.Scene, xM, yM float64) (float64, float64, bool) {
	zones := h.Pipeline.Zones
	zones.HomeX, zones.HomeY = xM, yM
	res, err := h.SelectWithConfigCtx(ctx, scene, zones)
	if err != nil || !res.Confirmed {
		return 0, 0, false
	}
	txM, tyM := res.Zone.CenterM(scene.MPP)
	return txM, tyM, true
}
