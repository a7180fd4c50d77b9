package urban

import (
	"math/rand"

	"safeland/internal/imaging"
)

// Config controls the procedural layout generator. All distances are meters.
type Config struct {
	// W, H are the rendered scene dimensions in pixels.
	W, H int

	// RoadSpacingMin/Max bound the distance between parallel roads.
	RoadSpacingMin, RoadSpacingMax float64
	// RoadWidthMin/Max bound road widths.
	RoadWidthMin, RoadWidthMax float64

	// Block type probabilities; the remainder becomes building blocks.
	ParkProb, PlazaProb, ParkingProb float64

	// MovingCarsPer100M is the linear traffic density on roads.
	MovingCarsPer100M float64
	// ParkedCarsPer100M is the linear density of cars parked on road edges.
	ParkedCarsPer100M float64
	// HumansPerBlockMax caps pedestrians per plaza/park block.
	HumansPerBlockMax int

	// PondProb is the chance a park contains a pond (labeled clutter,
	// recorded in the layout for the static risk-map baseline).
	PondProb float64
	// PowerLineProb is the chance a road carries an overhead power line
	// (metadata only; sub-pixel at our ground sampling distance).
	PowerLineProb float64
}

// DefaultConfig returns generator settings producing scenes with the class
// balance of a mid-density European city: connected road grid, 50-70%
// built-up blocks, parks and plazas.
func DefaultConfig() Config {
	return Config{
		W: 192, H: 192,
		RoadSpacingMin: 40, RoadSpacingMax: 78,
		RoadWidthMin: 7, RoadWidthMax: 13,
		ParkProb: 0.22, PlazaProb: 0.10, ParkingProb: 0.12,
		MovingCarsPer100M: 2.2,
		ParkedCarsPer100M: 1.6,
		HumansPerBlockMax: 6,
		PondProb:          0.25,
		PowerLineProb:     0.35,
	}
}

// RectM is an axis-aligned rectangle in world meters.
type RectM struct {
	X0, Y0, X1, Y1 float64
}

// CenterX returns the x coordinate of the rectangle center.
func (r RectM) CenterX() float64 { return (r.X0 + r.X1) / 2 }

// CenterY returns the y coordinate of the rectangle center.
func (r RectM) CenterY() float64 { return (r.Y0 + r.Y1) / 2 }

// RoadM is a road strip with its orientation.
type RoadM struct {
	Rect       RectM
	Horizontal bool
}

// BuildingM is a building footprint with roof height.
type BuildingM struct {
	Rect    RectM
	HeightM float64
}

// CircleM is a disk in world meters.
type CircleM struct {
	X, Y, R float64
}

// CarM records a vehicle position for layout consumers.
type CarM struct {
	X, Y   float64
	Moving bool
}

// Layout is the vector world model behind a rendered scene. Database-driven
// landing-zone baselines (Bleier-style static risk maps) consume this instead
// of imagery, mirroring how the real systems consume GIS data.
type Layout struct {
	WorldW, WorldH float64 // meters
	Roads          []RoadM
	Buildings      []BuildingM
	Parks          []RectM
	Plazas         []RectM
	ParkingLots    []RectM
	Ponds          []CircleM
	PowerLines     [][4]float64 // x0, y0, x1, y1 segments in meters
	Cars           []CarM
	HumanCount     int
}

// painter accumulates the label, base-color and height rasters while the
// layout is generated.
type painter struct {
	labels *imaging.LabelMap
	base   *imaging.Image
	height *imaging.Map
	mpp    float64
}

func (p *painter) px(m float64) int { return int(m / p.mpp) }

func (p *painter) paintRect(r RectM, c imaging.Class, col imaging.RGB, h float64) {
	x0, y0 := p.px(r.X0), p.px(r.Y0)
	x1, y1 := p.px(r.X1), p.px(r.Y1)
	p.labels.FillRect(x0, y0, x1, y1, c)
	p.height.FillRect(x0, y0, x1, y1, float32(h))
	for y := max(0, y0); y < min(p.base.H, y1); y++ {
		for x := max(0, x0); x < min(p.base.W, x1); x++ {
			p.base.Set(x, y, col)
		}
	}
}

func (p *painter) paintDisk(cx, cy, r float64, c imaging.Class, col imaging.RGB, h float64) {
	pcx, pcy, pr := p.px(cx), p.px(cy), p.px(r)
	if pr < 1 {
		pr = 1
	}
	p.labels.FillDisk(pcx, pcy, pr, c)
	p.height.FillDisk(pcx, pcy, pr, float32(h))
	r2 := pr * pr
	for y := pcy - pr; y <= pcy+pr; y++ {
		for x := pcx - pr; x <= pcx+pr; x++ {
			dx, dy := x-pcx, y-pcy
			if dx*dx+dy*dy <= r2 && p.base.In(x, y) {
				p.base.Set(x, y, col)
			}
		}
	}
}

// generateLayout builds the vector layout and paints the rasters.
func generateLayout(cfg Config, cond Conditions, rng *rand.Rand) (*Layout, *painter) {
	mpp := GroundSamplingDistance(cond.AltitudeM)
	worldW := float64(cfg.W) * mpp
	worldH := float64(cfg.H) * mpp
	lay := &Layout{WorldW: worldW, WorldH: worldH}
	p := &painter{
		labels: imaging.NewLabelMap(cfg.W, cfg.H),
		base:   imaging.NewImage(cfg.W, cfg.H),
		height: imaging.NewMap(cfg.W, cfg.H),
		mpp:    mpp,
	}

	// Terrain base: pavement/soil clutter.
	groundCol := imaging.RGB{R: 0.52, G: 0.50, B: 0.47}
	p.paintRect(RectM{0, 0, worldW, worldH}, imaging.Clutter, groundCol, 0)

	// Road grid: cut positions along each axis.
	vxs := cutPositions(worldW, cfg, rng) // x centers of vertical roads
	hys := cutPositions(worldH, cfg, rng) // y centers of horizontal roads
	roadCol := imaging.RGB{R: 0.21, G: 0.21, B: 0.22}
	vWidths := make([]float64, len(vxs))
	hWidths := make([]float64, len(hys))
	for i, x := range vxs {
		w := cfg.RoadWidthMin + rng.Float64()*(cfg.RoadWidthMax-cfg.RoadWidthMin)
		vWidths[i] = w
		r := RectM{x - w/2, 0, x + w/2, worldH}
		lay.Roads = append(lay.Roads, RoadM{Rect: r, Horizontal: false})
		p.paintRect(r, imaging.Road, roadCol, 0)
		if rng.Float64() < cfg.PowerLineProb {
			lay.PowerLines = append(lay.PowerLines, [4]float64{x + w/2 + 1, 0, x + w/2 + 1, worldH})
		}
	}
	for i, y := range hys {
		w := cfg.RoadWidthMin + rng.Float64()*(cfg.RoadWidthMax-cfg.RoadWidthMin)
		hWidths[i] = w
		r := RectM{0, y - w/2, worldW, y + w/2}
		lay.Roads = append(lay.Roads, RoadM{Rect: r, Horizontal: true})
		p.paintRect(r, imaging.Road, roadCol, 0)
		if rng.Float64() < cfg.PowerLineProb {
			lay.PowerLines = append(lay.PowerLines, [4]float64{0, y + w/2 + 1, worldW, y + w/2 + 1})
		}
	}

	// Lane markings (base color only; labels stay Road).
	markCol := imaging.RGB{R: 0.72, G: 0.72, B: 0.66}
	for _, x := range vxs {
		for my := 0.0; my < worldH; my += 6 {
			p.paintDashV(x, my, my+2.5, markCol)
		}
	}
	for _, y := range hys {
		for mx := 0.0; mx < worldW; mx += 6 {
			p.paintDashH(y, mx, mx+2.5, markCol)
		}
	}

	// Blocks between roads.
	xsEdges := blockEdges(vxs, vWidths, worldW)
	ysEdges := blockEdges(hys, hWidths, worldH)
	for bi := 0; bi+1 < len(ysEdges); bi += 2 {
		for bj := 0; bj+1 < len(xsEdges); bj += 2 {
			block := RectM{xsEdges[bj], ysEdges[bi], xsEdges[bj+1], ysEdges[bi+1]}
			if block.X1-block.X0 < 8 || block.Y1-block.Y0 < 8 {
				continue
			}
			// Sidewalk margin: shrink the usable block.
			inner := RectM{block.X0 + 2.5, block.Y0 + 2.5, block.X1 - 2.5, block.Y1 - 2.5}
			r := rng.Float64()
			switch {
			case r < cfg.ParkProb:
				fillPark(lay, p, cfg, cond, inner, rng)
			case r < cfg.ParkProb+cfg.PlazaProb:
				fillPlaza(lay, p, cfg, inner, rng)
			case r < cfg.ParkProb+cfg.PlazaProb+cfg.ParkingProb:
				fillParking(lay, p, inner, rng)
			default:
				fillBuildings(lay, p, inner, rng)
			}
		}
	}

	// Traffic scaled by time of day.
	traffic := TrafficFactor(cond.TimeOfDay)
	for ri, x := range vxs {
		placeCarsVertical(lay, p, x, vWidths[ri], worldH, cfg, traffic, rng)
	}
	for ri, y := range hys {
		placeCarsHorizontal(lay, p, y, hWidths[ri], worldW, cfg, traffic, rng)
	}

	return lay, p
}

// cutPositions places parallel road centerlines along an axis of the given
// length.
func cutPositions(length float64, cfg Config, rng *rand.Rand) []float64 {
	var xs []float64
	x := cfg.RoadSpacingMin/2 + rng.Float64()*cfg.RoadSpacingMin
	for x < length {
		xs = append(xs, x)
		x += cfg.RoadSpacingMin + rng.Float64()*(cfg.RoadSpacingMax-cfg.RoadSpacingMin)
	}
	return xs
}

// blockEdges converts road centerlines+widths into alternating block
// start/end coordinates: [blockStart, blockEnd, blockStart, ...].
func blockEdges(centers, widths []float64, length float64) []float64 {
	edges := []float64{0}
	for i, c := range centers {
		edges = append(edges, c-widths[i]/2, c+widths[i]/2)
	}
	edges = append(edges, length)
	return edges
}

func (p *painter) paintDashV(x, y0, y1 float64, col imaging.RGB) {
	px := p.px(x)
	for y := p.px(y0); y <= p.px(y1); y++ {
		if p.base.In(px, y) && p.labels.At(px, y) == imaging.Road {
			p.base.Set(px, y, col)
		}
	}
}

func (p *painter) paintDashH(y, x0, x1 float64, col imaging.RGB) {
	py := p.px(y)
	for x := p.px(x0); x <= p.px(x1); x++ {
		if p.base.In(x, py) && p.labels.At(x, py) == imaging.Road {
			p.base.Set(x, py, col)
		}
	}
}

func vegetationColor(season Season, rng *rand.Rand) imaging.RGB {
	base := imaging.RGB{R: 0.28, G: 0.46, B: 0.16}
	switch season {
	case Autumn:
		base = imaging.RGB{R: 0.52, G: 0.38, B: 0.12}
	case Winter:
		base = imaging.RGB{R: 0.42, G: 0.40, B: 0.34}
	}
	j := float32(rng.Float64()*0.08 - 0.04)
	return imaging.RGB{R: base.R + j, G: base.G + j, B: base.B + j}.Clamp()
}

func treeColor(season Season, rng *rand.Rand) imaging.RGB {
	base := imaging.RGB{R: 0.10, G: 0.30, B: 0.08}
	switch season {
	case Autumn:
		base = imaging.RGB{R: 0.40, G: 0.26, B: 0.08}
	case Winter:
		base = imaging.RGB{R: 0.25, G: 0.22, B: 0.18}
	}
	j := float32(rng.Float64()*0.06 - 0.03)
	return imaging.RGB{R: base.R + j, G: base.G + j, B: base.B + j}.Clamp()
}

func fillPark(lay *Layout, p *painter, cfg Config, cond Conditions, r RectM, rng *rand.Rand) {
	lay.Parks = append(lay.Parks, r)
	p.paintRect(r, imaging.LowVegetation, vegetationColor(cond.Season, rng), 0.3)
	// Pond.
	if rng.Float64() < cfg.PondProb && r.X1-r.X0 > 16 && r.Y1-r.Y0 > 16 {
		pr := 3 + rng.Float64()*4
		cx := r.X0 + pr + rng.Float64()*(r.X1-r.X0-2*pr)
		cy := r.Y0 + pr + rng.Float64()*(r.Y1-r.Y0-2*pr)
		lay.Ponds = append(lay.Ponds, CircleM{cx, cy, pr})
		p.paintDisk(cx, cy, pr, imaging.Clutter, imaging.RGB{R: 0.13, G: 0.28, B: 0.42}, 0)
	}
	// Trees.
	area := (r.X1 - r.X0) * (r.Y1 - r.Y0)
	nTrees := int(area/120) + rng.Intn(4)
	for i := 0; i < nTrees; i++ {
		tr := 2 + rng.Float64()*3.5
		cx := r.X0 + tr + rng.Float64()*max(r.X1-r.X0-2*tr, 1)
		cy := r.Y0 + tr + rng.Float64()*max(r.Y1-r.Y0-2*tr, 1)
		p.paintDisk(cx, cy, tr, imaging.Tree, treeColor(cond.Season, rng), 5+rng.Float64()*7)
	}
	placeHumans(lay, p, cfg, r, rng, rng.Intn(cfg.HumansPerBlockMax+1))
}

func fillPlaza(lay *Layout, p *painter, cfg Config, r RectM, rng *rand.Rand) {
	lay.Plazas = append(lay.Plazas, r)
	col := imaging.RGB{R: 0.60, G: 0.57, B: 0.52}
	p.paintRect(r, imaging.Clutter, col, 0)
	placeHumans(lay, p, cfg, r, rng, 1+rng.Intn(cfg.HumansPerBlockMax+1))
}

func fillParking(lay *Layout, p *painter, r RectM, rng *rand.Rand) {
	lay.ParkingLots = append(lay.ParkingLots, r)
	p.paintRect(r, imaging.Clutter, imaging.RGB{R: 0.30, G: 0.30, B: 0.31}, 0)
	// Rows of parked cars.
	for y := r.Y0 + 3; y+5 < r.Y1; y += 8 {
		for x := r.X0 + 2; x+2.5 < r.X1; x += 3.5 {
			if rng.Float64() < 0.55 {
				paintCar(lay, p, x+1.1, y+2.2, false, false, rng)
			}
		}
	}
}

func fillBuildings(lay *Layout, p *painter, r RectM, rng *rand.Rand) {
	w, h := r.X1-r.X0, r.Y1-r.Y0
	nx, ny := 1, 1
	if w > 30 {
		nx = 2
	}
	if h > 30 {
		ny = 2
	}
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			cellW, cellH := w/float64(nx), h/float64(ny)
			bx0 := r.X0 + float64(i)*cellW + 1.5 + rng.Float64()*2
			by0 := r.Y0 + float64(j)*cellH + 1.5 + rng.Float64()*2
			bx1 := r.X0 + float64(i+1)*cellW - 1.5 - rng.Float64()*2
			by1 := r.Y0 + float64(j)*cellH + cellH - 1.5 - rng.Float64()*2
			if bx1-bx0 < 5 || by1-by0 < 5 {
				continue
			}
			if rng.Float64() < 0.12 { // vacant lot
				continue
			}
			height := 9 + rng.Float64()*28
			b := BuildingM{Rect: RectM{bx0, by0, bx1, by1}, HeightM: height}
			lay.Buildings = append(lay.Buildings, b)
			p.paintRect(b.Rect, imaging.Building, roofColor(rng), height)
		}
	}
}

func roofColor(rng *rand.Rand) imaging.RGB {
	palette := []imaging.RGB{
		{R: 0.46, G: 0.21, B: 0.15}, // brick
		{R: 0.40, G: 0.40, B: 0.42}, // slate
		{R: 0.55, G: 0.46, B: 0.31}, // tan
		{R: 0.30, G: 0.31, B: 0.34}, // dark bitumen
		{R: 0.36, G: 0.41, B: 0.36}, // weathered copper
	}
	c := palette[rng.Intn(len(palette))]
	j := float32(rng.Float64()*0.08 - 0.04)
	return imaging.RGB{R: c.R + j, G: c.G + j, B: c.B + j}.Clamp()
}

func carColor(rng *rand.Rand) imaging.RGB {
	palette := []imaging.RGB{
		{R: 0.75, G: 0.10, B: 0.10}, // red
		{R: 0.12, G: 0.25, B: 0.70}, // blue
		{R: 0.88, G: 0.88, B: 0.90}, // white
		{R: 0.08, G: 0.08, B: 0.09}, // black
		{R: 0.65, G: 0.66, B: 0.70}, // silver
		{R: 0.80, G: 0.68, B: 0.10}, // yellow
	}
	return palette[rng.Intn(len(palette))]
}

// paintCar paints a ~2×4.5 m vehicle. vertical selects the long-axis
// orientation; moving selects the MovingCar vs StaticCar label.
func paintCar(lay *Layout, p *painter, cx, cy float64, vertical, moving bool, rng *rand.Rand) {
	halfL, halfW := 2.25, 1.0
	if !vertical {
		halfL, halfW = halfW, halfL
	}
	class := imaging.StaticCar
	if moving {
		class = imaging.MovingCar
	}
	r := RectM{cx - halfW, cy - halfL, cx + halfW, cy + halfL}
	p.paintRect(r, class, carColor(rng), 1.5)
	lay.Cars = append(lay.Cars, CarM{X: cx, Y: cy, Moving: moving})
}

func placeCarsVertical(lay *Layout, p *painter, roadX, roadW, worldH float64, cfg Config, traffic float64, rng *rand.Rand) {
	nMoving := poissonish(cfg.MovingCarsPer100M*traffic*worldH/100, rng)
	for i := 0; i < nMoving; i++ {
		lane := roadX - roadW/4
		if rng.Intn(2) == 0 {
			lane = roadX + roadW/4
		}
		paintCar(lay, p, lane, rng.Float64()*worldH, true, true, rng)
	}
	nParked := poissonish(cfg.ParkedCarsPer100M*worldH/100, rng)
	for i := 0; i < nParked; i++ {
		side := roadX - roadW/2 + 1.1
		if rng.Intn(2) == 0 {
			side = roadX + roadW/2 - 1.1
		}
		paintCar(lay, p, side, rng.Float64()*worldH, true, false, rng)
	}
}

func placeCarsHorizontal(lay *Layout, p *painter, roadY, roadW, worldW float64, cfg Config, traffic float64, rng *rand.Rand) {
	nMoving := poissonish(cfg.MovingCarsPer100M*traffic*worldW/100, rng)
	for i := 0; i < nMoving; i++ {
		lane := roadY - roadW/4
		if rng.Intn(2) == 0 {
			lane = roadY + roadW/4
		}
		paintCar(lay, p, rng.Float64()*worldW, lane, false, true, rng)
	}
	nParked := poissonish(cfg.ParkedCarsPer100M*worldW/100, rng)
	for i := 0; i < nParked; i++ {
		side := roadY - roadW/2 + 1.1
		if rng.Intn(2) == 0 {
			side = roadY + roadW/2 - 1.1
		}
		paintCar(lay, p, rng.Float64()*worldW, side, false, false, rng)
	}
}

func placeHumans(lay *Layout, p *painter, cfg Config, r RectM, rng *rand.Rand, n int) {
	clothing := []imaging.RGB{
		{R: 0.85, G: 0.30, B: 0.25}, {R: 0.25, G: 0.35, B: 0.75},
		{R: 0.85, G: 0.80, B: 0.70}, {R: 0.20, G: 0.20, B: 0.22},
	}
	for i := 0; i < n; i++ {
		cx := r.X0 + rng.Float64()*(r.X1-r.X0)
		cy := r.Y0 + rng.Float64()*(r.Y1-r.Y0)
		p.paintDisk(cx, cy, 0.45, imaging.Humans, clothing[rng.Intn(len(clothing))], 1.7)
		lay.HumanCount++
	}
}

// poissonish draws an integer with the given mean using a simple
// Knuth-style sampler, falling back to rounding for large means.
func poissonish(mean float64, rng *rand.Rand) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		return int(mean + rng.NormFloat64()*sqrt64(mean) + 0.5)
	}
	l := exp64(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
