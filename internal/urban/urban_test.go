package urban

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"safeland/internal/imaging"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.W, cfg.H = 96, 96
	a := Generate(cfg, DefaultConditions(), 42)
	b := Generate(cfg, DefaultConditions(), 42)
	for i := range a.Labels.Pix {
		if a.Labels.Pix[i] != b.Labels.Pix[i] {
			t.Fatalf("labels differ at %d for identical seeds", i)
		}
	}
	for i := range a.Image.Pix {
		if a.Image.Pix[i] != b.Image.Pix[i] {
			t.Fatalf("pixels differ at %d for identical seeds", i)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.W, cfg.H = 96, 96
	a := Generate(cfg, DefaultConditions(), 1)
	b := Generate(cfg, DefaultConditions(), 2)
	same := 0
	for i := range a.Labels.Pix {
		if a.Labels.Pix[i] == b.Labels.Pix[i] {
			same++
		}
	}
	if same == len(a.Labels.Pix) {
		t.Fatal("different seeds produced identical label maps")
	}
}

func TestSceneHasExpectedClassMix(t *testing.T) {
	cfg := DefaultConfig()
	scene := Generate(cfg, DefaultConditions(), 7)
	fr := scene.Labels.Fractions()

	if fr[imaging.Road] < 0.05 || fr[imaging.Road] > 0.6 {
		t.Errorf("road fraction %v outside plausible urban range", fr[imaging.Road])
	}
	if fr[imaging.Building] == 0 {
		t.Error("no buildings generated")
	}
	// A landable surface must exist somewhere.
	if fr[imaging.LowVegetation]+fr[imaging.Clutter] < 0.05 {
		t.Error("no landable surface (vegetation/clutter) in scene")
	}
	// Multiple seeds must consistently contain roads and cars overall.
	var roads, cars int
	for seed := int64(0); seed < 8; seed++ {
		s := Generate(cfg, DefaultConditions(), 100+seed)
		c := s.Labels.Counts()
		roads += c[imaging.Road]
		cars += c[imaging.MovingCar] + c[imaging.StaticCar]
	}
	if roads == 0 || cars == 0 {
		t.Errorf("across seeds: roads=%d cars=%d, want both > 0", roads, cars)
	}
}

func TestSceneGeometryConsistency(t *testing.T) {
	cfg := DefaultConfig()
	scene := Generate(cfg, DefaultConditions(), 11)
	// Layout buildings must coincide with Building-labeled pixels at their
	// centers.
	for _, b := range scene.Layout.Buildings {
		x := int(b.Rect.CenterX() / scene.MPP)
		y := int(b.Rect.CenterY() / scene.MPP)
		if !scene.Labels.In(x, y) {
			continue
		}
		if scene.Labels.At(x, y) != imaging.Building {
			t.Errorf("building center (%d,%d) labeled %v", x, y, scene.Labels.At(x, y))
		}
		if scene.Height.At(x, y) <= 0 {
			t.Errorf("building center (%d,%d) has zero height", x, y)
		}
	}
	// Roads lie at ground level.
	for _, r := range scene.Layout.Roads {
		x := int(r.Rect.CenterX() / scene.MPP)
		y := int(r.Rect.CenterY() / scene.MPP)
		if !scene.Labels.In(x, y) {
			continue
		}
		if h := scene.Height.At(x, y); h > 2 {
			t.Errorf("road center height = %v, want ground level", h)
		}
	}
}

func TestGSDScalesWithAltitude(t *testing.T) {
	if got := GroundSamplingDistance(120); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("GSD(120) = %v, want 0.5", got)
	}
	if got := GroundSamplingDistance(240); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("GSD(240) = %v, want 1.0", got)
	}
	if got := GroundSamplingDistance(0); got != 0.5 {
		t.Errorf("GSD(0) = %v, want fallback 0.5", got)
	}
	cfg := DefaultConfig()
	low := Generate(cfg, DefaultConditions(), 3)
	highCond := DefaultConditions()
	highCond.AltitudeM = 240
	high := Generate(cfg, highCond, 3)
	if high.MPP <= low.MPP {
		t.Errorf("MPP at 240 m (%v) not larger than at 120 m (%v)", high.MPP, low.MPP)
	}
	if high.Layout.WorldW <= low.Layout.WorldW {
		t.Error("higher altitude should cover a wider world extent")
	}
}

func TestSunsetShiftsColorDistribution(t *testing.T) {
	cfg := DefaultConfig()
	cfg.W, cfg.H = 128, 128
	day := Generate(cfg, DefaultConditions(), 5)
	cond := SunsetConditions()
	cond.AltitudeM = 120 // isolate the lighting axis
	sun := Generate(cfg, cond, 5)

	meanChannel := func(im *imaging.Image) (r, g, b float64) {
		for _, p := range im.Pix {
			r += float64(p.R)
			g += float64(p.G)
			b += float64(p.B)
		}
		n := float64(len(im.Pix))
		return r / n, g / n, b / n
	}
	dr, dg, db := meanChannel(day.Image)
	sr, sg, sb := meanChannel(sun.Image)
	// Sunset: darker overall, with red/blue ratio strongly increased.
	if sr+sg+sb >= dr+dg+db {
		t.Errorf("sunset not darker: day sum %v, sunset sum %v", dr+dg+db, sr+sg+sb)
	}
	if sr/sb <= dr/db {
		t.Errorf("sunset red/blue ratio %v not above day %v", sr/sb, dr/db)
	}
}

func TestLightingStrings(t *testing.T) {
	tests := []struct {
		fmtr interface{ String() string }
		want string
	}{
		{Day, "day"}, {Sunset, "sunset"}, {Overcast, "overcast"}, {Night, "night"},
		{Summer, "summer"}, {Autumn, "autumn"}, {Winter, "winter"},
	}
	for _, tt := range tests {
		if got := tt.fmtr.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestDiurnalFactors(t *testing.T) {
	if DiurnalFactor(3) >= DiurnalFactor(14) {
		t.Error("3am activity should be below 2pm")
	}
	if TrafficFactor(18) <= TrafficFactor(3) {
		t.Error("evening rush traffic should exceed 3am")
	}
	property := func(h float64) bool {
		d, tr := DiurnalFactor(h), TrafficFactor(h)
		return d >= 0 && d <= 1.5 && tr >= 0 && tr <= 1.6
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	// Periodicity.
	if math.Abs(DiurnalFactor(14)-DiurnalFactor(14+24)) > 1e-9 {
		t.Error("DiurnalFactor not 24h periodic")
	}
	if math.Abs(TrafficFactor(-6)-TrafficFactor(18)) > 1e-9 {
		t.Error("TrafficFactor not periodic for negative hours")
	}
}

func TestPopulationDensity(t *testing.T) {
	road, tree := ClassDensity(imaging.Road, 12), ClassDensity(imaging.Tree, 12)
	if road <= tree {
		t.Error("road density should exceed tree density")
	}
	if road <= ClassDensity(imaging.Road, 3) {
		t.Error("noon density should exceed 3am density")
	}
	if tree <= 0 {
		t.Error("density should be positive")
	}
}

func TestAsciiRender(t *testing.T) {
	cfg := DefaultConfig()
	cfg.W, cfg.H = 96, 96
	scene := Generate(cfg, DefaultConditions(), 9)
	art := AsciiRender(scene.Labels, 48)
	if art == "" {
		t.Fatal("empty render")
	}
	lines := strings.Split(strings.TrimRight(art, "\n"), "\n")
	if len(lines) == 0 || len(lines[0]) != 48 {
		t.Fatalf("render shape: %d lines, first width %d", len(lines), len(lines[0]))
	}
	if !strings.ContainsAny(art, "=") {
		t.Error("no road glyphs in a default urban scene render")
	}
	if AsciiRender(scene.Labels, 0) != "" {
		t.Error("cols=0 should give empty string")
	}
}

func TestTrafficScalesCarCount(t *testing.T) {
	cfg := DefaultConfig()
	cfg.W, cfg.H = 160, 160
	rush := DefaultConditions()
	rush.TimeOfDay = 18
	nightC := DefaultConditions()
	nightC.TimeOfDay = 3
	var rushCars, nightCars int
	for seed := int64(0); seed < 6; seed++ {
		rushCars += Generate(cfg, rush, 200+seed).Labels.Counts()[imaging.MovingCar]
		nightCars += Generate(cfg, nightC, 200+seed).Labels.Counts()[imaging.MovingCar]
	}
	if rushCars <= nightCars {
		t.Errorf("rush-hour moving-car pixels (%d) not above 3am (%d)", rushCars, nightCars)
	}
}

func BenchmarkGenerateScene192(b *testing.B) {
	cfg := DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Generate(cfg, DefaultConditions(), int64(i))
	}
}
