package scenario

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"safeland/internal/core"
	"safeland/internal/uav"
	"safeland/internal/urban"
)

func TestAxesEnumerateEmptyAxisError(t *testing.T) {
	cases := []struct {
		axis   string
		mutate func(*Axes)
	}{
		{"Layouts", func(a *Axes) { a.Layouts = nil }},
		{"Densities", func(a *Axes) { a.Densities = nil }},
		{"Winds", func(a *Axes) { a.Winds = nil }},
		{"Failures", func(a *Axes) { a.Failures = nil }},
		{"Hours", func(a *Axes) { a.Hours = nil }},
	}
	for _, tc := range cases {
		a := DefaultAxes()
		tc.mutate(&a)
		scens, err := a.Enumerate(64, 7)
		if err == nil {
			t.Fatalf("empty %s axis enumerated %d scenarios without error", tc.axis, len(scens))
		}
		if !strings.Contains(err.Error(), tc.axis) {
			t.Errorf("empty-%s error does not name the axis: %v", tc.axis, err)
		}
		if scens != nil {
			t.Errorf("empty %s axis returned scenarios alongside the error", tc.axis)
		}
	}

	// The fully-empty grid names every axis.
	if _, err := (Axes{}).Enumerate(64, 7); err == nil {
		t.Fatal("zero-value axes enumerated without error")
	}
}

func TestAxesTruncateShapesGrid(t *testing.T) {
	a := DefaultAxes()

	cut := a.Truncate(2)
	if cut.Scenarios() != 2*2*2*2*2 {
		t.Fatalf("Truncate(2) yields %d scenarios, want 32", cut.Scenarios())
	}
	if cut.DistinctScenes() != 2*2*2 {
		t.Fatalf("Truncate(2) yields %d distinct scenes, want 8", cut.DistinctScenes())
	}
	if got := a.Truncate(0); !reflect.DeepEqual(got, a) {
		t.Fatal("Truncate(0) must keep the grid unchanged")
	}
	if got := a.Truncate(99); !reflect.DeepEqual(got, a) {
		t.Fatal("Truncate beyond the axis lengths must keep the grid unchanged")
	}

	named, err := a.TruncateAxis("winds", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(named.Winds) != 1 || len(named.Layouts) != len(a.Layouts) {
		t.Fatalf("TruncateAxis(winds, 1) got %d winds / %d layouts", len(named.Winds), len(named.Layouts))
	}
	if _, err := a.TruncateAxis("bogus", 1); err == nil {
		t.Fatal("unknown axis name must error")
	}
	if _, err := a.TruncateAxis("hours", 0); err == nil {
		t.Fatal("truncating an axis to zero variants must error")
	}
	if _, err := a.TruncateAxis("winds", len(a.Winds)+1); err == nil {
		t.Fatal("selecting more variants than the axis defines must error")
	}
	if same, err := a.TruncateAxis("winds", len(a.Winds)); err != nil || len(same.Winds) != len(a.Winds) {
		t.Fatalf("selecting the full axis must be a no-op (err=%v)", err)
	}

	wantNames := []string{"layouts", "densities", "winds", "failures", "hours"}
	if !reflect.DeepEqual(AxisNames(), wantNames) {
		t.Fatalf("AxisNames() = %v, want %v", AxisNames(), wantNames)
	}

	// A truncated grid is a sub-grid: surviving scenarios keep their seeds.
	full, err := a.Enumerate(64, 7)
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[string]int64{}
	for _, sc := range full {
		seeds[sc.Name] = sc.Spec.Seed
	}
	cutScens, err := cut.Enumerate(64, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range cutScens {
		want, ok := seeds[sc.Name]
		if !ok {
			t.Fatalf("truncated grid invented scenario %q", sc.Name)
		}
		if sc.Spec.Seed != want {
			t.Fatalf("scenario %q changed seed under truncation", sc.Name)
		}
	}
}

func TestScenarioCarriesAxisValues(t *testing.T) {
	a := DefaultAxes()
	scens, err := a.Enumerate(64, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scens {
		wantName := sc.Layout.Name + "/" + sc.Density.Name + "/" + sc.Wind.Name + "/" + sc.Failure.Name + "/" + sc.HourName()
		if sc.Name != wantName {
			t.Fatalf("scenario name %q does not recompose from its axis values (%q)", sc.Name, wantName)
		}
	}
}

// fuzzAxes builds a synthetic grid with nl×nd×nw×nf×nh variants, each with
// a distinct stable name, so FuzzAxesEnumerate can exercise arbitrary grid
// shapes without generating any scenes.
func fuzzAxes(nl, nd, nw, nf, nh int) Axes {
	var a Axes
	for i := 0; i < nl; i++ {
		cfg := urban.DefaultConfig()
		cfg.ParkProb += float64(i) * 0.01
		a.Layouts = append(a.Layouts, LayoutVariant{Name: sprintN("lay", i), Cfg: cfg})
	}
	for i := 0; i < nd; i++ {
		a.Densities = append(a.Densities, DensityVariant{Name: sprintN("den", i), TrafficScale: 1 + float64(i)*0.25, PedestrianScale: 1})
	}
	for i := 0; i < nw; i++ {
		a.Winds = append(a.Winds, WindVariant{Name: sprintN("wind", i), MeanMS: float64(i), GustStd: 0.2})
	}
	kinds := []uav.FailureKind{uav.NavigationLoss, uav.BatteryCritical, uav.EngineFailure}
	for i := 0; i < nf; i++ {
		a.Failures = append(a.Failures, FailureVariant{Name: sprintN("fail", i), Kind: kinds[i%len(kinds)], AtS: 5})
	}
	for i := 0; i < nh; i++ {
		a.Hours = append(a.Hours, float64(i))
	}
	return a
}

func sprintN(prefix string, i int) string { return prefix + string(rune('a'+i)) }

// FuzzAxesEnumerate fuzzes grid shapes and base seeds. Invariants: empty
// axes error instead of panicking or yielding a vacuous grid; otherwise
// enumeration is deterministic, scenario names are unique, and the number
// of distinct scene specs matches the wind×failure collapse formula.
func FuzzAxesEnumerate(f *testing.F) {
	f.Add(uint8(3), uint8(3), uint8(3), uint8(3), uint8(3), int64(7), 64)
	f.Add(uint8(0), uint8(1), uint8(1), uint8(1), uint8(1), int64(1), 32)
	f.Add(uint8(1), uint8(2), uint8(4), uint8(1), uint8(5), int64(-9), 0)
	f.Fuzz(func(t *testing.T, nl, nd, nw, nf, nh uint8, baseSeed int64, sizePx int) {
		const maxAxis = 5 // keeps the cross product small; shapes still vary
		a := fuzzAxes(int(nl%(maxAxis+1)), int(nd%(maxAxis+1)), int(nw%(maxAxis+1)), int(nf%(maxAxis+1)), int(nh%(maxAxis+1)))

		scens, err := a.Enumerate(sizePx, baseSeed)
		if a.Scenarios() == 0 {
			if err == nil {
				t.Fatalf("grid %dx%dx%dx%dx%d with an empty axis enumerated without error",
					len(a.Layouts), len(a.Densities), len(a.Winds), len(a.Failures), len(a.Hours))
			}
			return
		}
		if err != nil {
			t.Fatalf("non-empty grid errored: %v", err)
		}
		if len(scens) != a.Scenarios() {
			t.Fatalf("enumerated %d scenarios, want %d", len(scens), a.Scenarios())
		}

		again, err := a.Enumerate(sizePx, baseSeed)
		if err != nil || !reflect.DeepEqual(scens, again) {
			t.Fatal("enumeration order is not deterministic")
		}

		names := map[string]bool{}
		keys := map[string]bool{}
		for _, sc := range scens {
			if names[sc.Name] {
				t.Fatalf("duplicate scenario name %q", sc.Name)
			}
			names[sc.Name] = true
			keys[sc.Spec.Key()] = true
			if sc.Spec.Cfg.W != sizePx || sc.Spec.Cfg.H != sizePx {
				t.Fatalf("scenario %q ignores the requested scene size", sc.Name)
			}
		}
		if len(keys) != a.DistinctScenes() {
			t.Fatalf("grid of %d scenarios resolves to %d distinct scene specs, want %d (wind x failure collapse)",
				len(scens), len(keys), a.DistinctScenes())
		}
	})
}

// TestDefaultBufferCoversModerateDrift checks the drift claim behind
// EL-I-M1 (core.SelfAssessment): the default road buffer covers the mean
// parachute drift (uav.DriftBuffer, no gust margin) from the vehicle's
// deployment altitude in the grid's moderate wind.
func TestDefaultBufferCoversModerateDrift(t *testing.T) {
	i := slices.IndexFunc(DefaultAxes().Winds, func(w WindVariant) bool { return w.Name == "moderate" })
	if i < 0 {
		t.Fatal("DefaultAxes has no moderate wind")
	}
	wind := DefaultAxes().Winds[i]
	spec := uav.MediDelivery()
	drift := uav.DriftBuffer(spec.ParachuteDeployAltM, spec.ParachuteSinkMS, wind.MeanMS, 0, 0)
	if buf := core.DefaultZoneConfig().BufferM; buf < drift {
		t.Errorf("road buffer %.1f m < %.1f m mean drift from %.0f m in %.1f m/s wind",
			buf, drift, spec.ParachuteDeployAltM, wind.MeanMS)
	}
}
