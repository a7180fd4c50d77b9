package baseline

import (
	"testing"

	"safeland/internal/imaging"
	"safeland/internal/urban"
)

func testScene(seed int64) *urban.Scene {
	cfg := urban.DefaultConfig()
	cfg.W, cfg.H = 128, 128
	return urban.Generate(cfg, urban.DefaultConditions(), seed)
}

func TestCannySelectsLowEdgeWindow(t *testing.T) {
	s := testScene(5)
	z, ok := NewCanny().Select(s, 24)
	if !ok {
		t.Fatal("no zone selected")
	}
	if z.X0 < 0 || z.Y0 < 0 || z.X0+z.Size > s.Image.W || z.Y0+z.Size > s.Image.H {
		t.Fatalf("zone out of bounds: %+v", z)
	}
	// The chosen window must have fewer edges than the scene average.
	edges := s.Image.Luminance().Canny(1.2, 0.06, 0.18)
	it := imaging.NewIntegral(edges)
	zoneMean := it.RectMean(z.X0, z.Y0, z.X0+z.Size, z.Y0+z.Size)
	sceneMean := it.RectMean(0, 0, s.Image.W, s.Image.H)
	if zoneMean > sceneMean {
		t.Errorf("zone edge density %v above scene mean %v", zoneMean, sceneMean)
	}
}

func TestFlatnessPrefersFlatGround(t *testing.T) {
	s := testScene(6)
	z, ok := Flatness{}.Select(s, 24)
	if !ok {
		t.Fatal("no zone selected")
	}
	// The selected window must not contain buildings (tall structures).
	for y := z.Y0; y < z.Y0+z.Size; y++ {
		for x := z.X0; x < z.X0+z.Size; x++ {
			if s.Labels.At(x, y) == imaging.Building {
				t.Fatalf("flatness selected a building at (%d,%d)", x, y)
			}
		}
	}
}

func TestFlatnessCanPickRoads(t *testing.T) {
	// The paper's criticism: flat surfaces include roads. Across seeds, the
	// flatness selector should sometimes choose zones containing busy-road
	// pixels — the hazardous behavior EL is designed to avoid.
	roadPicks := 0
	for seed := int64(0); seed < 10; seed++ {
		s := testScene(100 + seed)
		z, ok := Flatness{}.Select(s, 20)
		if !ok {
			continue
		}
		ci := imaging.NewClassIntegral(s.Labels)
		if ci.BusyRoadFraction(z.X0, z.Y0, z.X0+z.Size, z.Y0+z.Size) > 0.05 {
			roadPicks++
		}
	}
	if roadPicks == 0 {
		t.Skip("flatness never picked a road across these seeds; criticism not observable here")
	}
	t.Logf("flatness picked road-containing zones in %d/10 scenes", roadPicks)
}

func TestSelectorsRejectOversizedZones(t *testing.T) {
	s := testScene(7)
	if _, ok := NewCanny().Select(s, 1000); ok {
		t.Error("canny accepted an oversized zone")
	}
	if _, ok := NewTileClassifier().Select(s, 1000); ok {
		t.Error("tile classifier accepted an oversized zone")
	}
}

func TestTileClassifierLearnsClasses(t *testing.T) {
	scenes := []*urban.Scene{testScene(11), testScene(12)}
	tc := NewTileClassifier()
	tc.Train(scenes, 6, 3)

	// Accuracy on training tiles must beat chance substantially.
	s := scenes[0]
	edges := s.Image.Luminance().Canny(1.2, 0.06, 0.18)
	correct, total := 0, 0
	for y := 0; y+tc.TileSize <= s.Image.H; y += tc.TileSize {
		for x := 0; x+tc.TileSize <= s.Image.W; x += tc.TileSize {
			var counts [imaging.NumClasses]int
			for yy := y; yy < y+tc.TileSize; yy++ {
				for xx := x; xx < x+tc.TileSize; xx++ {
					counts[s.Labels.At(xx, yy)]++
				}
			}
			bc, bn := 0, -1
			for c, n := range counts {
				if n > bn {
					bc, bn = c, n
				}
			}
			probs := tc.ClassifyWindow(s.Image, edges, x, y, tc.TileSize)
			pc, pv := 0, -1.0
			for c, p := range probs {
				if p > pv {
					pc, pv = c, p
				}
			}
			if pc == bc {
				correct++
			}
			total++
		}
	}
	acc := float64(correct) / float64(total)
	if acc < 0.5 {
		t.Errorf("tile classifier train accuracy %.3f, want >= 0.5 (chance is 0.125)", acc)
	}
}

func TestTileClassifierSelectAvoidsRoadCenters(t *testing.T) {
	scenes := []*urban.Scene{testScene(21), testScene(22)}
	tc := NewTileClassifier()
	tc.Train(scenes, 6, 3)
	s := testScene(23)
	z, ok := tc.Select(s, 20)
	if !ok {
		t.Fatal("no zone")
	}
	ci := imaging.NewClassIntegral(s.Labels)
	if fr := ci.BusyRoadFraction(z.X0, z.Y0, z.X0+z.Size, z.Y0+z.Size); fr > 0.5 {
		t.Errorf("tile classifier landed mostly on road (%.2f busy fraction)", fr)
	}
}

func TestSelectorNames(t *testing.T) {
	selectors := []Selector{NewCanny(), Flatness{}, NewTileClassifier()}
	seen := map[string]bool{}
	for _, sel := range selectors {
		n := sel.Name()
		if n == "" || seen[n] {
			t.Errorf("selector name %q empty or duplicated", n)
		}
		seen[n] = true
	}
}
