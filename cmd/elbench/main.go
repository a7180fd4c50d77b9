// Command elbench regenerates every table and figure of the paper
// (experiments E1–E10, see DESIGN.md) plus the E11 grid-coverage
// experiment over the scenario axes, the E12 full-frame monitoring
// study (crop-only vs whole-frame Bayesian verdicts tiled from crop
// verdicts), the E13 descent-session fleet study (per-frame
// recompute vs session temporal reuse) and the E14 chaos drill (the
// descent fleet under a published fault schedule with degraded-mode
// serving and health-aware failover). The model-dependent experiments
// (E5, E7–E14) run as scenario fleets over the safeland.Engine worker
// pool, one Engine.Select per scene (or a session per vehicle), drawing
// every scene from the shared content-addressed corpus; -workers sizes the
// pool without changing any reported number (per-scene seeding keeps fleet
// output byte-identical across worker counts), and -scenecache persists
// the corpus on disk so repeated runs skip scene generation entirely.
// -grid and -axes shape the E11 scenario grid. Typical use:
//
//	elbench                 # run everything at full scale
//	elbench -run E7,E9      # run selected experiments
//	elbench -quick          # smoke-test scale
//	elbench -workers 8      # wider Engine pool for the fleets
//	elbench -scenecache /tmp/scenes   # on-disk scene corpus across runs
//	elbench -run E11 -grid 2          # E11 on a 2-variant-per-axis sub-grid
//	elbench -run E11 -axes winds=1,hours=2   # shape individual axes
//	elbench -run E12 -quick           # full-frame monitoring study, quick scale
//	elbench -run E13 -quick           # descent-session fleet study, quick scale
//	elbench -run E14 -quick           # chaos drill, quick scale
//	elbench -out results.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"safeland/internal/experiments"
	"safeland/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: flags are parsed from args, reports go
// to stdout, progress and errors to stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("elbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runIDs  = fs.String("run", "all", "comma-separated experiment IDs (E1..E14) or 'all'")
		quick   = fs.Bool("quick", false, "reduced scale for smoke testing")
		outPth  = fs.String("out", "", "also write output to this file")
		seed    = fs.Int64("seed", 0, "override the experiment seed (0 keeps the default)")
		workers = fs.Int("workers", 0, "Engine worker-pool size for the experiment fleets (0 = auto)")
		cache   = fs.String("scenecache", "", "directory for the on-disk scene corpus (empty = in-memory only)")
		grid    = fs.Int("grid", 0, "truncate every E11 scenario axis to its first N variants (0 = full grid)")
		axesStr = fs.String("axes", "", "shape individual E11 axes, e.g. layouts=2,winds=1 (axes: layouts, densities, winds, failures, hours)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.Workers = *workers
	if axes, shaped, err := gridFromFlags(*grid, *axesStr); err != nil {
		fmt.Fprintf(stderr, "elbench: %v\n", err)
		return 2
	} else if shaped {
		cfg.Grid = axes
	}

	var w io.Writer = stdout
	if *outPth != "" {
		f, err := os.Create(*outPth)
		if err != nil {
			fmt.Fprintf(stderr, "elbench: %v\n", err)
			return 1
		}
		defer f.Close()
		w = io.MultiWriter(stdout, f)
	}

	env := experiments.NewEnv(cfg, stderr)
	if *cache != "" {
		env.Corpus = scenario.NewDiskCorpus(*cache)
	}
	fmt.Fprintf(w, "safeland experiment suite — seed %d, scale %s, %d fleet workers\n",
		cfg.Seed, scaleName(*quick), env.Workers())
	defer func() {
		st := env.Corpus.Stats()
		fmt.Fprintf(stderr, "[corpus] %d scenes generated, %d cache hits, %d disk hits\n",
			st.Generated, st.Hits, st.DiskHits)
	}()

	if *runIDs == "all" {
		if err := experiments.RunAll(env, w); err != nil {
			fmt.Fprintf(stderr, "elbench: %v\n", err)
			return 1
		}
		return 0
	}
	for _, id := range strings.Split(*runIDs, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		if err := experiments.RunByID(id, env, w); err != nil {
			fmt.Fprintf(stderr, "elbench: %v\n", err)
			return 1
		}
	}
	return 0
}

func scaleName(quick bool) string {
	if quick {
		return "quick"
	}
	return "full"
}

// gridFromFlags builds the E11 scenario grid from -grid/-axes. Each
// "axis=n" entry of -axes selects the first n variants of that axis of the
// *full* default grid (asking beyond the axis length errors); -grid then
// truncates only the axes -axes did not name, so "-grid 1 -axes winds=3"
// means exactly what it says: every axis at one variant except all three
// wind regimes. shaped is false when neither flag was given (the
// experiment falls back to the full default grid on its own).
func gridFromFlags(grid int, axesSpec string) (axes scenario.Axes, shaped bool, err error) {
	if grid < 0 {
		return scenario.Axes{}, false, fmt.Errorf("-grid must be >= 0 (got %d)", grid)
	}
	if grid == 0 && axesSpec == "" {
		return scenario.Axes{}, false, nil
	}
	axes = scenario.DefaultAxes()
	named := map[string]bool{}
	for _, part := range strings.Split(axesSpec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		rawName, val, ok := strings.Cut(part, "=")
		if !ok {
			return scenario.Axes{}, false, fmt.Errorf("-axes entry %q is not axis=count", part)
		}
		name := strings.TrimSpace(rawName)
		if named[name] {
			return scenario.Axes{}, false, fmt.Errorf("-axes names axis %q twice", name)
		}
		n, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil {
			return scenario.Axes{}, false, fmt.Errorf("-axes entry %q: count %q is not an integer", part, val)
		}
		if axes, err = axes.TruncateAxis(name, n); err != nil {
			return scenario.Axes{}, false, err
		}
		named[name] = true
	}
	if grid > 0 {
		for _, name := range scenario.AxisNames() {
			if named[name] {
				continue
			}
			// -grid clamps like Truncate: beyond-length means "keep all",
			// so the explicit-request overflow error is ignored here.
			if cut, err := axes.TruncateAxis(name, grid); err == nil {
				axes = cut
			}
		}
	}
	return axes, true, nil
}
