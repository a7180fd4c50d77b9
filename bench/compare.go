package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// declared is the part of BENCHMARK.json the comparator applies.
type declared struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// side summarizes one metric over one side's runs.
type side struct {
	Runs   []float64 `json:"runs"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	// Spread is the quartile distance as a share of the median.
	Spread float64 `json:"spread"`
}

func summarizeSide(xs []float64) side {
	q1, q3 := quartiles(xs)
	m := median(xs)
	return side{Runs: xs, Median: m, Q1: q1, Q3: q3, Spread: (q3 - q1) / math.Abs(m)}
}

// row is one workload × metric line of a comparison.
type row struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Bound    float64 `json:"bound"`
	Base     side    `json:"base"`
	New      *side   `json:"new,omitempty"`
	// Wins is the share of base/new pairs the new side won (ties count for
	// neither).
	Wins    float64 `json:"wins,omitempty"`
	Verdict string  `json:"verdict"`
}

// ledger is what -ledger writes: the comparison with every run behind it.
type ledger struct {
	Rows []row     `json:"rows"`
	Base []*report `json:"base_runs"`
	New  []*report `json:"new_runs,omitempty"`
}

// runCompare compares BASE reports with NEW reports (args split at "--"),
// applying each end-to-end metric's bound from BENCHMARK.json. With no NEW
// reports it summarizes BASE alone and judges its spread against the
// bounds. It returns an error when a metric regressed or, alone, spreads
// wider than its bound.
func runCompare(args []string, benchPath, ledgerPath string, out io.Writer) error {
	var baseFiles, newFiles []string
	for i, a := range args {
		if a == "--" {
			baseFiles, newFiles = args[:i], args[i+1:]
			break
		}
	}
	if baseFiles == nil {
		baseFiles = args
	}
	if len(baseFiles) == 0 {
		return fmt.Errorf("-compare needs run reports: -compare BASE.json... [-- NEW.json...]")
	}
	var decl declared
	b, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	base, err := readReports(baseFiles)
	if err != nil {
		return err
	}
	nw, err := readReports(newFiles)
	if err != nil {
		return err
	}

	var rows []row
	bad := 0
	for _, w := range workloads {
		bv, bTraced := metricRuns(base, w.name)
		if len(bv) == 0 {
			continue
		}
		nv, nTraced := metricRuns(nw, w.name)
		fmt.Fprintf(out, "%s (%d base runs", w.name, len(bv["setup_s"]))
		if len(newFiles) > 0 {
			fmt.Fprintf(out, ", %d new runs", len(nv["setup_s"]))
		}
		fmt.Fprintln(out, ")")
		for _, d := range decl.EndToEnd {
			r := row{Workload: w.name, Metric: d.Name, Unit: d.Unit, Bound: d.Bound, Base: summarizeSide(bv[d.Name])}
			if len(newFiles) == 0 {
				r.Verdict = spreadVerdict(r.Base.Spread, d.Bound)
				if r.Verdict == "too wide" && d.Name != "setup_s" {
					bad++
				}
				fmt.Fprintf(out, "  %-16s %-9s median %10.4f  q1 %10.4f  q3 %10.4f  spread %6.2f%%  bound %5.1f%%  %s\n",
					d.Name, d.Unit, r.Base.Median, r.Base.Q1, r.Base.Q3, 100*r.Base.Spread, 100*d.Bound, r.Verdict)
			} else {
				ns := summarizeSide(nv[d.Name])
				r.New = &ns
				r.Wins, r.Verdict = judge(bv[d.Name], nv[d.Name], d.Better == "higher", d.Bound)
				if r.Verdict == "regression" {
					bad++
				}
				fmt.Fprintf(out, "  %-16s %-9s base %10.4f [%.4f, %.4f]  new %10.4f [%.4f, %.4f]  wins %3.0f%%  %s\n",
					d.Name, d.Unit, r.Base.Median, r.Base.Q1, r.Base.Q3, ns.Median, ns.Q1, ns.Q3, 100*r.Wins, r.Verdict)
			}
			rows = append(rows, r)
		}
		for _, s := range []struct {
			name          string
			plain, traced map[string][]float64
		}{{"base", bv, bTraced}, {"new", nv, nTraced}} {
			if len(s.plain["open_latency_p50_ms"]) > 0 && len(s.traced["trace.latency_p50_ms"]) > 0 {
				u, t := median(s.plain["open_latency_p50_ms"]), median(s.traced["trace.latency_p50_ms"])
				fmt.Fprintf(out, "  tracing overhead (%s): traced open-loop p50 %.2f ms vs untraced %.2f ms (%+.1f%%)\n", s.name, t, u, 100*(t-u)/u)
			}
		}
	}
	if ledgerPath != "" {
		if err := writeJSON(ledgerPath, ledger{Rows: rows, Base: base, New: nw}); err != nil {
			return err
		}
	}
	if bad > 0 {
		if len(newFiles) == 0 {
			return fmt.Errorf("%d metrics spread wider than their bound", bad)
		}
		return fmt.Errorf("%d metrics regressed beyond their bound", bad)
	}
	return nil
}

// spreadVerdict judges one side's run-to-run spread against a bound: the
// benchmark aims for spreads below a third of the bound.
func spreadVerdict(spread, bound float64) string {
	switch {
	case spread <= bound/3:
		return "steady"
	case spread <= bound:
		return "within bound"
	default:
		return "too wide"
	}
}

// minGainPairs is how many base/new pairs a gain needs: with fewer, two sets
// of the same code win every pair by chance often enough to matter.
const minGainPairs = 10

// judge compares new runs against base runs of one metric. A gain needs at
// least minGainPairs pairs, the new side winning at least 9 in 10 of them,
// and a median gap wider than the base quartile distance; a regression is a
// median worse by more than the bound (a share of the base median); when the
// base spread is wider than the bound the result is unresolved unless every
// new run beats every base run.
func judge(base, nw []float64, higher bool, bound float64) (wins float64, verdict string) {
	better := func(a, b float64) bool { // a better than b
		if higher {
			return a > b
		}
		return a < b
	}
	pairs := min(len(base), len(nw))
	won := 0
	for i := 0; i < pairs; i++ {
		if better(nw[i], base[i]) {
			won++
		}
	}
	if pairs > 0 {
		wins = float64(won) / float64(pairs)
	}
	bs, ns := summarizeSide(base), summarizeSide(nw)
	worse := (ns.Median - bs.Median) / math.Abs(bs.Median)
	if higher {
		worse = -worse
	}
	allBetter := true
	for _, n := range nw {
		for _, b := range base {
			if !better(n, b) {
				allBetter = false
			}
		}
	}
	switch {
	case bs.Spread > bound && !allBetter:
		return wins, "unresolved"
	case worse > bound:
		return wins, "regression"
	case pairs >= minGainPairs && wins >= 0.9 && worse < 0 && math.Abs(ns.Median-bs.Median) > bs.Q3-bs.Q1:
		return wins, "gain"
	default:
		return wins, "no change"
	}
}

func readReports(paths []string) ([]*report, error) {
	var out []*report
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, &r)
	}
	return out, nil
}

// metricRuns collects, per metric and other measurement, the values of one
// workload's untraced and traced runs, in input order.
func metricRuns(reps []*report, workload string) (plain, traced map[string][]float64) {
	plain, traced = map[string][]float64{}, map[string][]float64{}
	for _, r := range reps {
		if r.Workload != workload {
			continue
		}
		dst := plain
		if r.Trace {
			dst = traced
		}
		for k, m := range r.Metrics {
			dst[k] = append(dst[k], m.Value)
		}
		for k, m := range r.Extra {
			dst[k] = append(dst[k], m.Value)
		}
	}
	return plain, traced
}
