package imaging

import "testing"

func TestFillRectClips(t *testing.T) {
	lm := NewLabelMap(4, 4)
	lm.FillRect(-2, -2, 10, 2, Road) // clipped to top two rows
	counts := lm.Counts()
	if counts[Road] != 8 {
		t.Fatalf("road pixels = %d, want 8", counts[Road])
	}
	m := NewMap(4, 4)
	m.FillRect(2, 2, 100, 100, 1)
	if got := m.CountAbove(0.5); got != 4 {
		t.Fatalf("map rect pixels = %d, want 4", got)
	}
}

func TestFillDisk(t *testing.T) {
	lm := NewLabelMap(11, 11)
	lm.FillDisk(5, 5, 3, Tree)
	if lm.At(5, 5) != Tree || lm.At(5, 2) != Tree || lm.At(2, 5) != Tree {
		t.Error("disk missing interior/axis pixels")
	}
	if lm.At(0, 0) != Clutter || lm.At(10, 10) != Clutter {
		t.Error("disk overflowed corners")
	}
	// Disk clipped at border must not panic and must paint in-bounds pixels.
	lm.FillDisk(0, 0, 3, Building)
	if lm.At(0, 0) != Building {
		t.Error("clipped disk did not paint origin")
	}
}

func TestThickLine(t *testing.T) {
	m := NewMap(20, 20)
	m.ThickLine(0, 10, 19, 10, 2, 1)
	for x := 0; x < 20; x++ {
		if m.At(x, 10) != 1 {
			t.Fatalf("centerline pixel (%d,10) not painted", x)
		}
		if m.At(x, 12) != 1 || m.At(x, 8) != 1 {
			t.Fatalf("line thickness missing at x=%d", x)
		}
	}
	if m.At(5, 14) == 1 {
		t.Error("line thicker than requested")
	}
	// Zero half-width paints a single-pixel diagonal.
	m2 := NewMap(10, 10)
	m2.ThickLine(0, 0, 9, 9, 0, 2)
	if m2.At(0, 0) != 2 || m2.At(9, 9) != 2 || m2.At(5, 5) != 2 {
		t.Error("diagonal thin line incomplete")
	}
}

func TestMapThickLine(t *testing.T) {
	m := NewMap(10, 10)
	m.ThickLine(0, 0, 9, 0, 0, 3)
	if m.At(0, 0) != 3 || m.At(9, 0) != 3 {
		t.Error("map thin line endpoints missing")
	}
	m.ThickLine(0, 5, 9, 5, 1, 7)
	if m.At(4, 4) != 7 || m.At(4, 6) != 7 {
		t.Error("map thick line width missing")
	}
}

func TestBresenhamEndpoints(t *testing.T) {
	tests := []struct{ x0, y0, x1, y1 int }{
		{0, 0, 5, 0}, {0, 0, 0, 5}, {5, 5, 0, 0}, {0, 5, 5, 0}, {3, 3, 3, 3},
	}
	for _, tt := range tests {
		var pts [][2]int
		bresenham(tt.x0, tt.y0, tt.x1, tt.y1, func(x, y int) { pts = append(pts, [2]int{x, y}) })
		if len(pts) == 0 {
			t.Fatalf("no points for %+v", tt)
		}
		if pts[0] != [2]int{tt.x0, tt.y0} {
			t.Errorf("line %+v does not start at origin: %v", tt, pts[0])
		}
		if pts[len(pts)-1] != [2]int{tt.x1, tt.y1} {
			t.Errorf("line %+v does not end at target: %v", tt, pts[len(pts)-1])
		}
	}
}
