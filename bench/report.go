package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metric is one named measurement. N is its sample count where it has one.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// result is the one-line JSON object the benchmark prints last on stdout.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's outcome and metrics as stdout carries them.
func (rep *report) result() result {
	out := result{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]valueUnit{}}
	for k, m := range rep.Metrics {
		out.Metrics[k] = valueUnit{Value: m.Value, Unit: m.Unit}
	}
	return out
}

// machine records where a run ran.
type machine struct {
	NumCPU        int    `json:"num_cpu"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	CPUModel      string `json:"cpu_model,omitempty"`
	GoVersion     string `json:"go_version"`
	NNParallelism int    `json:"nn_parallelism"`
	OSArch        string `json:"os_arch"`
}

func currentMachine(nnPar int) machine {
	return machine{
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		NNParallelism: nnPar,
		OSArch:        runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// cpuModel reads the CPU model name; "" where /proc/cpuinfo is unreadable.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// report is the full record of one run, written by -out and read by
// -compare.
type report struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Machine  machine `json:"machine"`
	// Correct, Attempted and Failed are the run's outcome: whether it
	// passed its correctness gate, and how many frames it sent and lost to
	// an error.
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Extra holds measurements that are not benchmark metrics: the raw
	// times behind the host-normalised ones, open-loop latency, descent's
	// safety-class latency, counts behind the fractions.
	Extra map[string]metric `json:"extra,omitempty"`
	// Setups are the raw wall-clock times of the set-ups, in seconds.
	Setups []float64 `json:"setup_runs_s"`
	// SelfTimes is each span name's summed self time in ms (traced runs).
	SelfTimes map[string]float64 `json:"self_times_ms,omitempty"`
	Faults    []string           `json:"fault_plan,omitempty"`
	Problems  []string           `json:"problems,omitempty"`
	// Errors samples the distinct errors failed frames carried.
	Errors []string `json:"errors,omitempty"`
}

// writeTable prints the run's metrics, one per line with unit and sample
// count, for a reader.
func writeTable(w io.Writer, rep *report) {
	fmt.Fprintf(w, "\n%s seed %d, %.0f s, trace %v — %d CPU, GOMAXPROCS %d, nn parallelism %d, %s\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Trace, rep.Machine.NumCPU, rep.Machine.GOMAXPROCS,
		rep.Machine.NNParallelism, rep.Machine.GoVersion)
	section := func(title string, ms map[string]metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintf(w, "  %s\n", title)
		names := make([]string, 0, len(ms))
		for k := range ms {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			m := ms[k]
			n := ""
			if m.N > 0 {
				n = fmt.Sprintf("n=%d", m.N)
			}
			fmt.Fprintf(w, "    %-28s %14.4f %-9s %s\n", k, m.Value, m.Unit, n)
		}
	}
	section("metrics", rep.Metrics)
	section("other measurements", rep.Extra)
	if len(rep.SelfTimes) > 0 {
		fmt.Fprintln(w, "  span self time (ms, summed over the traced phase)")
		names := make([]string, 0, len(rep.SelfTimes))
		for k := range rep.SelfTimes {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(w, "    %-28s %14.1f\n", k, rep.SelfTimes[k])
		}
	}
	fmt.Fprintf(w, "  correct %v: %d attempted, %d failed\n", rep.Correct, rep.Attempted, rep.Failed)
	for _, e := range rep.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
