package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"testing"

	"safeland"
)

// declaredFile is BENCHMARK.json as far as the harness must honour it.
type declaredFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestBenchSmoke runs every workload, untraced and traced, at toy scale (a
// briefly trained model, 96 px frames, 4 s of measuring) and checks that
// the run passes its correctness gate and prints exactly the metrics
// BENCHMARK.json declares, each with its declared unit — so the file and
// the harness cannot drift apart.
func TestBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model and runs every workload")
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl declaredFile
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness runs %d", len(decl.Workloads), len(workloads))
	}
	cache := t.TempDir()
	for _, dw := range decl.Workloads {
		for _, trace := range []bool{false, true} {
			c := config{workload: dw.Name, seed: 1, seconds: 4, trace: trace, framePx: 96,
				train:    safeland.Options{Seed: 2021, TrainScenes: 2, TrainSteps: 60, SceneSize: 96, MCSamples: 10},
				cacheDir: cache, tail: 1}
			rep, err := run(context.Background(), c, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", dw.Name, trace, err)
			}
			if !rep.Correct {
				t.Errorf("%s trace=%v failed its correctness gate: %v", dw.Name, trace, rep.Problems)
			}
			printed := rep.result()
			want := map[string]string{}
			for _, m := range decl.EndToEnd {
				want[m.Name] = m.Unit
			}
			if trace {
				want = map[string]string{}
				for _, m := range decl.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				got, ok := printed.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: declared metric %s not printed", dw.Name, trace, name)
				} else if got.Unit != unit {
					t.Errorf("%s trace=%v: %s printed in %q, declared in %q", dw.Name, trace, name, got.Unit, unit)
				}
			}
			for name := range printed.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: printed metric %s is not declared", dw.Name, trace, name)
				}
			}
		}
	}
}
