package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"safeland/internal/imaging"
	"safeland/internal/monitor"
	"safeland/internal/scenario"
)

// RunE12 breaks the paper's Section V-B constraint. The paper rules out
// whole-frame Bayesian monitoring as prohibitively slow and verifies only
// pre-selected sub-images; E9 reproduces that argument for the naive path.
// E12 measures what tiling changes: a whole-frame verdict verifies the
// frame as overlapping crop-sized tiles (monitor.Bayesian.VerifyFrameCtx),
// so it costs one crop verdict per tile — and each verdict already computes
// the deterministic prefix once and replays only the stochastic suffix per
// Monte-Carlo sample.
//
// The experiment compares the two monitoring regimes on the held-out
// splits:
//
//   - crop-only (the paper's architecture): the full pipeline fleet runs
//     through Engine.Select and only the candidate crops the Decision Module
//     offered are ever monitored;
//   - full-frame: the same frames verified wall-to-wall as overlapping
//     tiles, each tile one per-crop verdict of its rectangle.
//
// Reported per split: how much of the frame each regime monitors, the
// frame-wide coverage of core-model busy-road misses, the frame-wide false
// warning rate, and which crop-confirmed zones the full-frame map disputes.
// The latency section records the single-crop and whole-frame wall times;
// the acceptance budget (full frame < 10x one crop verdict) is tracked by
// BenchmarkFullFrameVerdict vs BenchmarkMCStats in BENCH_monitor.json /
// BENCH_nn.json.
func RunE12(e *Env, w io.Writer) error {
	rule := monitor.DefaultRule()
	zoneRule := rule
	zoneRule.MaxFlaggedFraction = 0.25 // the pipeline's zone tolerance

	eng, err := e.Engine()
	if err != nil {
		return fmt.Errorf("E12: %w", err)
	}
	defer eng.Close()
	_, testSpecs, oodSpecs := e.datasetSpecs()
	tile := evenInt(e.Cfg.CropSize)

	fmt.Fprintf(w, "Full-frame Bayesian monitoring as tiled crop verdicts (%d MC samples,\n", e.Cfg.MCSamples)
	fmt.Fprintf(w, "%dpx tiles). Crop-only rows monitor exactly what the pipeline's Decision\n", tile)
	fmt.Fprintln(w, "Module offered; full-frame rows verify every pixel of the same frames.")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  %-18s %-10s %10s %14s %15s %10s\n",
		"split", "regime", "monitored", "miss coverage", "false warnings", "flagged")

	b, err := e.BayesianReplica()
	if err != nil {
		return fmt.Errorf("E12: %w", err)
	}

	splits := []struct {
		name  string
		specs []scenario.Spec
	}{{"in-distribution", testSpecs}, {"OOD (sunset)", oodSpecs}}
	for _, split := range splits {
		resps := e.Fleet(context.Background(), eng, split.specs, scenario.SceneRequest)
		var crop, full monitor.Tally
		var cropMonitored, total, confirmed, disputed int64
		for si, resp := range resps {
			if resp.Err != nil {
				return fmt.Errorf("E12 %s scene %d: %w", split.name, si, resp.Err)
			}
			s := e.Corpus.Scene(split.specs[si])
			fw, fh := s.Image.W, s.Image.H

			// Crop-only regime: the union of the trial crops is all the
			// monitor ever saw; flags live only inside that union.
			monitored := imaging.NewMap(fw, fh)
			cropFlags := imaging.NewMap(fw, fh)
			for _, tr := range resp.Result.Trials {
				x0, y0, size := tr.Candidate.CropRect(fw, fh)
				monitored.FillRect(x0, y0, x0+size, y0+size, 1)
				monitor.MergeFlags(cropFlags, tr.Verdict.Flags, x0, y0)
			}

			// Full-frame regime: the frame tiled wall-to-wall.
			fv, err := b.VerifyFrameCtx(context.Background(), s.Image, tile, rule)
			if err != nil {
				return fmt.Errorf("E12 %s scene %d full-frame: %w", split.name, si, err)
			}

			crop.Add(s.Labels, resp.Result.Pred, cropFlags)
			full.Add(s.Labels, resp.Result.Pred, fv.Flags)
			cropMonitored += int64(monitored.CountAbove(0.5))
			total += int64(fw * fh)

			// Does the frame-wide uncertainty map dispute the zone the
			// crop-only pipeline confirmed?
			if resp.Result.Confirmed {
				confirmed++
				x0, y0, size := resp.Result.Zone.CropRect(fw, fh)
				zoneFlagged := 0
				for y := y0; y < y0+size; y++ {
					for x := x0; x < x0+size; x++ {
						if fv.Flags.Pix[y*fw+x] != 0 {
							zoneFlagged++
						}
					}
				}
				if float64(zoneFlagged)/float64(size*size) > zoneRule.MaxFlaggedFraction {
					disputed++
				}
			}
		}
		for _, row := range []struct {
			regime    string
			t         monitor.Tally
			monitored int64
		}{{"crop-only", crop, cropMonitored}, {"full-frame", full, total}} {
			q := row.t.Quality()
			if row.t.Missed == 0 {
				q.HazardMissCoverage = 0 // the table reads 0, not a vacuous 1
			}
			fmt.Fprintf(w, "  %-18s %-10s %9.1f%% %14.3f %14.3f%% %9.3f\n",
				split.name, row.regime,
				100*ratio(row.monitored, total),
				q.HazardMissCoverage, 100*q.FalseWarningRate, q.FlaggedFraction)
		}
		fmt.Fprintf(w, "  %-18s confirmed zones: %d, disputed by the full-frame map: %d\n",
			split.name, confirmed, disputed)
	}

	// In-experiment parity spot check: one tile re-verified on its own must
	// be byte-identical (the unit tests pin the full matrix; this guards
	// the wiring actually used above). The tiled run is also the latency
	// sample.
	s := e.Corpus.Scene(testSpecs[0])
	t0 := time.Now()
	fv, err := b.VerifyFrameCtx(context.Background(), s.Image, tile, rule)
	fullTime := time.Since(t0)
	if err != nil {
		return fmt.Errorf("E12 parity: %w", err)
	}
	tl := fv.Tiles[len(fv.Tiles)/2]
	naive, err := b.VerifyRegionCtx(context.Background(), s.Image.Crop(tl.X0, tl.Y0, tl.W, tl.H), rule)
	if err != nil {
		return fmt.Errorf("E12 parity: %w", err)
	}
	if !sameVerdict(tl.Verdict, naive) {
		return fmt.Errorf("E12: tile (%d,%d) diverged from the per-crop path", tl.X0, tl.Y0)
	}
	fmt.Fprintf(w, "\nParity spot check: tile (%d,%d) %dx%d byte-identical to the naive per-crop verdict.\n",
		tl.X0, tl.Y0, tl.W, tl.H)

	// Latency: what Section V-B's "prohibitively slow" becomes when tiled.
	// The steady-state per-crop number is BenchmarkMCStats in BENCH_nn.json;
	// BenchmarkFullFrameVerdict in BENCH_monitor.json tracks the acceptance
	// budget (full frame < 10x one crop verdict).
	t0 = time.Now()
	b.VerifyRegion(s.Image.Crop(0, 0, tile, tile), rule)
	cropTime := time.Since(t0)
	fmt.Fprintf(w, "\nLatency (%dx%d frame, %d tiles of %dpx):\n", s.Image.W, s.Image.H, len(fv.Tiles), tile)
	fmt.Fprintf(w, "  one crop verdict:      %10v\n", cropTime)
	fmt.Fprintf(w, "  whole frame (tiled):   %10v  = %.1fx one crop\n",
		fullTime, float64(fullTime)/float64(cropTime))
	fmt.Fprintln(w, "  acceptance budget: whole frame < 10x one crop verdict (BENCH_monitor.json)")

	fmt.Fprintln(w, "\nConclusion: tiled into crop verdicts, whole-frame Bayesian monitoring costs one")
	fmt.Fprintln(w, "crop verdict per tile, not hundreds — the Section V-B sub-image restriction is an")
	fmt.Fprintln(w, "optimization choice, not a constraint.")
	return nil
}

// ratio is a safe a/b; an empty denominator reads as 0.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// sameVerdict bit-compares two verdicts including their flag maps.
func sameVerdict(a, b monitor.Verdict) bool {
	if a.Confirmed != b.Confirmed || a.FlaggedFraction != b.FlaggedFraction || a.MaxScore != b.MaxScore {
		return false
	}
	for i := range a.Flags.Pix {
		if a.Flags.Pix[i] != b.Flags.Pix[i] {
			return false
		}
	}
	return true
}
