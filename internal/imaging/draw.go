package imaging

// Drawing primitives paint classes into LabelMaps and scalar values into
// Maps. They clip silently at the borders so scene generators can place
// structures partially outside the frame.

// FillRect paints the axis-aligned rectangle [x0,x1)×[y0,y1) with class c.
func (lm *LabelMap) FillRect(x0, y0, x1, y1 int, c Class) {
	x0, y0, x1, y1 = clipRect(x0, y0, x1, y1, lm.W, lm.H)
	for y := y0; y < y1; y++ {
		row := lm.Pix[y*lm.W : (y+1)*lm.W]
		for x := x0; x < x1; x++ {
			row[x] = c
		}
	}
}

// FillRect paints the axis-aligned rectangle [x0,x1)×[y0,y1) with value v.
func (m *Map) FillRect(x0, y0, x1, y1 int, v float32) {
	x0, y0, x1, y1 = clipRect(x0, y0, x1, y1, m.W, m.H)
	for y := y0; y < y1; y++ {
		row := m.Pix[y*m.W : (y+1)*m.W]
		for x := x0; x < x1; x++ {
			row[x] = v
		}
	}
}

func clipRect(x0, y0, x1, y1, w, h int) (int, int, int, int) {
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 > w {
		x1 = w
	}
	if y1 > h {
		y1 = h
	}
	return x0, y0, x1, y1
}

// FillDisk paints a disk of the given radius centered at (cx, cy).
func (lm *LabelMap) FillDisk(cx, cy, r int, c Class) {
	r2 := r * r
	for y := cy - r; y <= cy+r; y++ {
		if y < 0 || y >= lm.H {
			continue
		}
		dy := y - cy
		for x := cx - r; x <= cx+r; x++ {
			if x < 0 || x >= lm.W {
				continue
			}
			dx := x - cx
			if dx*dx+dy*dy <= r2 {
				lm.Pix[y*lm.W+x] = c
			}
		}
	}
}

// FillDisk paints a disk of the given radius centered at (cx, cy).
func (m *Map) FillDisk(cx, cy, r int, v float32) {
	r2 := r * r
	for y := cy - r; y <= cy+r; y++ {
		if y < 0 || y >= m.H {
			continue
		}
		dy := y - cy
		for x := cx - r; x <= cx+r; x++ {
			if x < 0 || x >= m.W {
				continue
			}
			dx := x - cx
			if dx*dx+dy*dy <= r2 {
				m.Pix[y*m.W+x] = v
			}
		}
	}
}

// ThickLine paints a line from (x0, y0) to (x1, y1) with the given half
// width into the scalar field.
func (m *Map) ThickLine(x0, y0, x1, y1, halfWidth int, v float32) {
	bresenham(x0, y0, x1, y1, func(x, y int) {
		if halfWidth <= 0 {
			if m.In(x, y) {
				m.Set(x, y, v)
			}
			return
		}
		m.FillDisk(x, y, halfWidth, v)
	})
}

// bresenham walks the integer line from (x0, y0) to (x1, y1) calling visit
// for every pixel, endpoints included.
func bresenham(x0, y0, x1, y1 int, visit func(x, y int)) {
	dx := abs(x1 - x0)
	dy := -abs(y1 - y0)
	sx := 1
	if x0 > x1 {
		sx = -1
	}
	sy := 1
	if y0 > y1 {
		sy = -1
	}
	err := dx + dy
	for {
		visit(x0, y0)
		if x0 == x1 && y0 == y1 {
			return
		}
		e2 := 2 * err
		if e2 >= dy {
			err += dy
			x0 += sx
		}
		if e2 <= dx {
			err += dx
			y0 += sy
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
