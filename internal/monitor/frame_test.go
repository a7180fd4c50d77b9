package monitor

import (
	"context"
	"reflect"
	"testing"

	"safeland/internal/imaging"
)

// TestVerifyFrameMatchesTiles pins the whole-frame path: every tile verdict
// must equal an independent VerifyRegionCtx of the same rectangle, and the
// aggregate must be the union of the tiles.
func TestVerifyFrameMatchesTiles(t *testing.T) {
	m := tinyModel()
	b := NewBayesian(m, 47)
	b.Samples = 4
	img := noisyImage(48, 67) // 48 with 32px tiles: trailing tiles overlap
	rule := DefaultRule()
	fv, err := b.VerifyFrameCtx(context.Background(), img, 32, rule)
	if err != nil {
		t.Fatal(err)
	}
	if len(fv.Tiles) != 4 {
		t.Fatalf("48px frame at 32px tiles: %d tiles, want 4", len(fv.Tiles))
	}
	union := imaging.NewMap(img.W, img.H)
	var maxScore float32
	for _, tile := range fv.Tiles {
		want, err := b.VerifyRegionCtx(context.Background(), img.Crop(tile.X0, tile.Y0, tile.W, tile.H), rule)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tile.Verdict, want) {
			t.Fatalf("tile (%d,%d): verdict diverged from per-crop path", tile.X0, tile.Y0)
		}
		if tile.Verdict.MaxScore > maxScore {
			maxScore = tile.Verdict.MaxScore
		}
		for y := 0; y < tile.H; y++ {
			for x := 0; x < tile.W; x++ {
				if tile.Verdict.Flags.Pix[y*tile.W+x] != 0 {
					union.Pix[(tile.Y0+y)*img.W+tile.X0+x] = 1
				}
			}
		}
	}
	if fv.MaxScore != maxScore {
		t.Fatalf("aggregate MaxScore %v, tile maximum %v", fv.MaxScore, maxScore)
	}
	flagged := 0
	for i := range union.Pix {
		if union.Pix[i] != fv.Flags.Pix[i] {
			t.Fatalf("aggregate flag map differs from tile union at pixel %d", i)
		}
		if union.Pix[i] != 0 {
			flagged++
		}
	}
	if want := float64(flagged) / float64(img.W*img.H); fv.FlaggedFraction != want {
		t.Fatalf("aggregate flagged fraction %v, union fraction %v", fv.FlaggedFraction, want)
	}
	if fv.Confirmed != (fv.FlaggedFraction <= rule.MaxFlaggedFraction) {
		t.Fatal("aggregate Confirmed inconsistent with the rule tolerance")
	}
}
