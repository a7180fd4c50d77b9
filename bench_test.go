package safeland

// One benchmark per reproduced paper artifact (see DESIGN.md §4): the
// E-numbers match the experiment registry in internal/experiments, so
// `go test -bench=E9 .` regenerates the timing argument behind the paper's
// Section V-B, etc. Model-dependent benchmarks share one quick-trained
// system (training time is excluded via b.ResetTimer-free lazy setup at
// first use; the fixture cost is paid once per `go test -bench` run).

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"safeland/internal/baseline"
	"safeland/internal/core"
	"safeland/internal/hazard"
	"safeland/internal/imaging"
	"safeland/internal/monitor"
	"safeland/internal/riskmap"
	"safeland/internal/sora"
	"safeland/internal/uav"
	"safeland/internal/urban"
)

var benchFix struct {
	sync.Once
	sys   *System
	scene *urban.Scene
	ood   *urban.Scene
}

func benchSystem(b *testing.B) (*System, *urban.Scene, *urban.Scene) {
	b.Helper()
	benchFix.Do(func() {
		benchFix.sys = NewSystem(Options{
			Seed: 11, TrainScenes: 3, TrainSteps: 200, SceneSize: 128, MCSamples: 10,
		})
		cfg := urban.DefaultConfig()
		cfg.W, cfg.H = 192, 192
		benchFix.scene = urban.Generate(cfg, urban.DefaultConditions(), 500)
		benchFix.ood = urban.Generate(cfg, urban.SunsetConditions(), 501)
	})
	return benchFix.sys, benchFix.scene, benchFix.ood
}

// BenchmarkE1SeverityModel measures the casualty assessment behind Table I.
func BenchmarkE1SeverityModel(b *testing.B) {
	im := hazard.Impact{
		Surface: imaging.Road, KineticEnergyJ: 8230, SpanM: 1,
		PeoplePerM2: 0.015, TrafficFactor: 1.2,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hazard.Assess(im)
	}
}

// BenchmarkE2ImpactMonteCarlo measures Table II's Monte-Carlo impact batch.
func BenchmarkE2ImpactMonteCarlo(b *testing.B) {
	_, scene, _ := benchSystem(b)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 100; k++ {
			x, y := rng.Intn(scene.Labels.W), rng.Intn(scene.Labels.H)
			c := scene.Labels.At(x, y)
			hazard.Assess(hazard.Impact{
				Surface: c, KineticEnergyJ: 8230, SpanM: 1,
				PeoplePerM2:   urban.ClassDensity(c, 18),
				TrafficFactor: urban.TrafficFactor(18),
			})
		}
	}
}

// BenchmarkE3SORA measures the full SORA assessment chain of Section III-D.
func BenchmarkE3SORA(b *testing.B) {
	op := Operation(uav.MediDelivery())
	op.Mitigations = []sora.Mitigation{
		{Type: sora.M3, Integrity: sora.Medium, Assurance: sora.Medium},
		{Type: sora.ActiveM1, Integrity: sora.Medium, Assurance: sora.Medium},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sora.Assess(op)
	}
}

// BenchmarkE4ELAssessment measures the Table III/IV evidence evaluation.
func BenchmarkE4ELAssessment(b *testing.B) {
	claims := core.Claims{InContextTesting: true, OODValidation: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.MitigationClaim(claims)
	}
}

// BenchmarkE5SafetySwitch measures a full failure-injected mission (Figure
// 1 loop) without the perception stack.
func BenchmarkE5SafetySwitch(b *testing.B) {
	_, scene, _ := benchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := &uav.Mission{
			Spec:      uav.MediDelivery(),
			Scene:     scene,
			Waypoints: [][2]float64{{5, 5}, {90, 90}},
			Base:      [2]float64{5, 5},
			Failures:  []uav.TimedFailure{{AtS: 3, Kind: uav.EngineFailure}},
			Hour:      18,
		}
		m.Run()
	}
}

// BenchmarkE6SceneGen measures procedural scene generation (Figure 3 data).
func BenchmarkE6SceneGen(b *testing.B) {
	cfg := urban.DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		urban.Generate(cfg, urban.DefaultConditions(), int64(i))
	}
}

// BenchmarkE7SegmentForward measures one deterministic segmentation pass.
func BenchmarkE7SegmentForward(b *testing.B) {
	sys, scene, _ := benchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Pipeline.Model.Predict(scene.Image)
	}
}

// BenchmarkE7MonitorVerifyZone measures Bayesian verification of one
// landing-zone crop (the Figure 2 monitor path).
func BenchmarkE7MonitorVerifyZone(b *testing.B) {
	sys, scene, _ := benchSystem(b)
	sub := scene.Image.Crop(0, 0, 24, 24)
	rule := monitor.DefaultRule()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Pipeline.Monitor.VerifyRegion(sub, rule)
	}
}

// BenchmarkE8 selectors: one zone pick per iteration for each strategy.
func BenchmarkE8SelectorCanny(b *testing.B) {
	_, scene, _ := benchSystem(b)
	sel := baseline.NewCanny()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel.Select(scene, 24)
	}
}

// BenchmarkE8SelectorFlatness measures the depth-flatness baseline.
func BenchmarkE8SelectorFlatness(b *testing.B) {
	_, scene, _ := benchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baseline.Flatness{}.Select(scene, 24)
	}
}

// BenchmarkE8SelectorStaticMap measures the GIS risk-map baseline.
func BenchmarkE8SelectorStaticMap(b *testing.B) {
	_, scene, _ := benchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		risk := riskmap.BuildStatic(scene.Layout, scene.Labels.W, scene.Labels.H,
			scene.MPP, riskmap.DefaultStaticConfig())
		riskmap.SelectZone(risk, 24)
	}
}

// BenchmarkE8SelectorEL measures the full monitored EL plan.
func BenchmarkE8SelectorEL(b *testing.B) {
	sys, scene, _ := benchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Pipeline.PlanLanding(context.Background(), scene, scene.Layout.WorldW/2, scene.Layout.WorldH/2)
	}
}

// BenchmarkE9MonitorSubImage and BenchmarkE9MonitorFullFrame regenerate the
// Section V-B timing argument: the full frame is the paper's 3840×2160
// scaled to 384×216; the sub-image keeps the paper's 1024/3840 linear
// fraction (102→102 px, rounded even). Expected time ratio ≈ pixel ratio
// ≈ 7.9×.
func BenchmarkE9MonitorSubImage(b *testing.B) {
	sys, _, _ := benchSystem(b)
	cfg := urban.DefaultConfig()
	cfg.W, cfg.H = 384, 216
	frame := urban.Generate(cfg, urban.DefaultConditions(), 900)
	sub := frame.Image.Crop(0, 0, 102, 102)
	rule := monitor.DefaultRule()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Pipeline.Monitor.VerifyRegion(sub, rule)
	}
}

// BenchmarkE9MonitorFullFrame is E9's full-frame counterpart.
func BenchmarkE9MonitorFullFrame(b *testing.B) {
	sys, _, _ := benchSystem(b)
	cfg := urban.DefaultConfig()
	cfg.W, cfg.H = 384, 216
	frame := urban.Generate(cfg, urban.DefaultConditions(), 900)
	rule := monitor.DefaultRule()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Pipeline.Monitor.VerifyRegion(frame.Image, rule)
	}
}

// BenchmarkE10TauSweep measures the monitor ROC sweep on one OOD scene.
func BenchmarkE10TauSweep(b *testing.B) {
	sys, _, ood := benchSystem(b)
	taus := []float32{0.05, 0.125, 0.3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		monitor.SweepSignal(monitor.EvalScenes(sys.Pipeline.Monitor, []*urban.Scene{ood}), monitor.SigmaInterval, taus)
	}
}
