package monitor

import (
	"context"
	"fmt"

	"safeland/internal/imaging"
)

// TileVerdict is one tile of a whole-frame verification.
type TileVerdict struct {
	X0, Y0, W, H int
	Verdict      Verdict
}

// FrameVerdict aggregates a tiled whole-frame verification. The embedded
// Verdict covers the full frame: Flags is the union of the tile flag maps
// in frame coordinates, FlaggedFraction counts distinct flagged frame
// pixels (overlapping tile rows are not double-counted), MaxScore is the
// maximum over tiles, and Confirmed applies the rule's flagged-fraction
// tolerance to the frame-wide fraction.
type FrameVerdict struct {
	Verdict
	Tiles []TileVerdict
}

// VerifyFrameCtx verifies the whole frame as a grid of tilePx×tilePx crops,
// each one VerifyRegionCtx of its rectangle; trailing tiles shift left/up
// to stay inside the frame, so edge rows are covered by overlapping tiles.
// tilePx is rounded up to even — the downsampling model requires even
// inputs — and clamped to the frame.
//
// This is the whole-frame monitoring the paper's Section V-B rules out as
// prohibitively slow: tiled, it costs one crop verdict per tile
// (experiment E12).
func (b *Bayesian) VerifyFrameCtx(ctx context.Context, frame *imaging.Image, tilePx int, rule Rule) (FrameVerdict, error) {
	fw, fh := frame.W, frame.H
	if tilePx < 2 {
		tilePx = 2
	}
	if tilePx%2 == 1 {
		tilePx++
	}
	tw, th := min(tilePx, fw), min(tilePx, fh)
	fv := FrameVerdict{Verdict: Verdict{Flags: imaging.NewMap(fw, fh)}}
	for _, y0 := range tileOrigins(fh, th) {
		for _, x0 := range tileOrigins(fw, tw) {
			v, err := b.VerifyRegionCtx(ctx, frame.Crop(x0, y0, tw, th), rule)
			if err != nil {
				return FrameVerdict{}, err
			}
			fv.Tiles = append(fv.Tiles, TileVerdict{X0: x0, Y0: y0, W: tw, H: th, Verdict: v})
			fv.MaxScore = max(fv.MaxScore, v.MaxScore)
			MergeFlags(fv.Flags, v.Flags, x0, y0)
		}
	}
	flagged := 0
	for _, p := range fv.Flags.Pix {
		if p != 0 {
			flagged++
		}
	}
	fv.FlaggedFraction = float64(flagged) / float64(fw*fh)
	fv.Confirmed = fv.FlaggedFraction <= rule.MaxFlaggedFraction
	return fv, nil
}

// tileOrigins returns the tile origins covering [0, n) with extent t: a
// regular grid plus a final origin shifted to n-t when n is not a multiple
// of t, so the last tile overlaps instead of falling short.
func tileOrigins(n, t int) []int {
	if t >= n {
		return []int{0}
	}
	var origins []int
	for o := 0; o+t <= n; o += t {
		origins = append(origins, o)
	}
	if last := n - t; origins[len(origins)-1] != last {
		origins = append(origins, last)
	}
	return origins
}

// MergeFlags ORs a tile flag map into the frame map at (x0, y0), panicking
// on a tile that does not fit: callers place tiles from their own grid or
// crop rectangles, so a mismatch is a bug, not an input condition.
func MergeFlags(frame, tile *imaging.Map, x0, y0 int) {
	if x0+tile.W > frame.W || y0+tile.H > frame.H {
		panic(fmt.Sprintf("monitor: %dx%d tile at (%d,%d) outside %dx%d frame",
			tile.W, tile.H, x0, y0, frame.W, frame.H))
	}
	for y := 0; y < tile.H; y++ {
		src := tile.Pix[y*tile.W : (y+1)*tile.W]
		dst := frame.Pix[(y0+y)*frame.W+x0 : (y0+y)*frame.W+x0+tile.W]
		for i, p := range src {
			if p != 0 {
				dst[i] = 1
			}
		}
	}
}
