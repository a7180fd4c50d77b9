package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"safeland"
	"safeland/internal/core"
	"safeland/internal/imaging"
	"safeland/internal/nn"
	"safeland/internal/segment"
)

// Per-layer probes time calls into each module's public functions, from
// outside the program, on the workload's own frames. They run after the
// traced phase while the serving engines are still open, so every nn
// operation gets the per-op parallelism it gets while serving.
const (
	probeFrameCount = 6
	segPasses       = 2
	decisionReps    = 2000
)

// probeLayers returns the core, monitor and nn per-layer metrics.
func probeLayers(ctx context.Context, sys *safeland.System, frames []frameRef) (map[string]metric, error) {
	rep, err := sys.Replica()
	if err != nil {
		return nil, err
	}
	p := rep.Pipeline
	var seg, cand, verdict, moments, scan, crop, decision []float64
	var crops []*imaging.Image
	for _, f := range frames {
		t := time.Now()
		pred, err := p.Model.PredictCtx(ctx, f.img)
		seg = append(seg, ms(time.Since(t)))
		if err != nil {
			return nil, err
		}
		t = time.Now()
		cands, _ := candidateLadder(pred, f.mpp, p.Zones)
		cand = append(cand, ms(time.Since(t)))

		// The verified crop: the best candidate's, or a zone-sized crop at
		// the frame centre when the search found none (night).
		var x0, y0, size int
		if len(cands) > 0 {
			x0, y0, size = cands[0].CropRect(f.img.W, f.img.H)
		} else {
			size = int(math.Ceil(p.Zones.ZoneSizeM / f.mpp))
			size += size % 2
			size = min(size, f.img.W, f.img.H)
			x0, y0 = (f.img.W-size)/2, (f.img.H-size)/2
		}
		c := f.img.Crop(x0, y0, size, size)
		crops = append(crops, c)
		crop = append(crop, float64(size))

		t = time.Now()
		v, err := p.Monitor.VerifyRegionCtx(ctx, c, p.Rule)
		verdict = append(verdict, ms(time.Since(t)))
		if err != nil {
			return nil, err
		}
		t = time.Now()
		st, err := p.Monitor.MCStatsCtx(ctx, c)
		moments = append(moments, ms(time.Since(t)))
		if err != nil {
			return nil, err
		}
		t = time.Now()
		p.Rule.PixelFlags(st)
		scan = append(scan, ms(time.Since(t)))

		t = time.Now()
		for i := 0; i < decisionReps; i++ {
			dm := core.NewDecisionModule(p.MaxTrials)
			dm.Offer(v)
			dm.Exhausted()
		}
		decision = append(decision, time.Since(t).Seconds()*1e6/decisionReps)
	}
	out := map[string]metric{
		"core.segment_ms":      {Value: median(seg), Unit: "ms", N: len(seg)},
		"core.candidates_ms":   {Value: median(cand), Unit: "ms", N: len(cand)},
		"core.decision_us":     {Value: median(decision), Unit: "us", N: len(decision)},
		"monitor.verdict_ms":   {Value: median(verdict), Unit: "ms", N: len(verdict)},
		"monitor.moments_ms":   {Value: median(moments), Unit: "ms", N: len(moments)},
		"monitor.rule_scan_ms": {Value: median(scan), Unit: "ms", N: len(scan)},
		"monitor.crop_px":      {Value: median(crop), Unit: "px", N: len(crop)},
	}
	layers, err := nnLayers(sys.Pipeline.Model, frames, crops, p.Monitor.Samples, p.Monitor.Seed)
	if err != nil {
		return nil, err
	}
	for k, m := range layers {
		out[k] = m
	}
	return out, nil
}

// nnLayerNames are the MSDnet layers in forward order, as the replay names
// them.
var nnLayerNames = []string{"stem_conv", "stem_bn", "stem_relu", "dropout1", "branch_d1", "branch_d2", "branch_d4",
	"concat", "dropout2", "head", "upsample", "softmax"}

// nnLayers replays the network layer by layer on a private replica: every
// top-level layer of the nn.Sequential and every ParallelConcat branch is
// wrapped in a timer, and each layer's self time (its span minus its
// children's) is its cost. seg_ms is one deterministic pass over a frame;
// mc_ms is one Monte-Carlo sample (dropout on) over a verified crop, with
// the softmax the monitor applies to each sample; verdict_share weighs
// mc_ms by how often one verdict runs the layer (the layers before the
// first dropout once, the rest once per sample).
func nnLayers(model *segment.Model, frames []frameRef, crops []*imaging.Image, samples int, seed int64) (map[string]metric, error) {
	m, err := model.Clone()
	if err != nil {
		return nil, err
	}
	seq, ok := m.Net.(*nn.Sequential)
	if !ok {
		return nil, fmt.Errorf("nn replay: network is %T, want *nn.Sequential", m.Net)
	}
	rep := &replay{}
	once, err := wrapLayers(seq, m.Cfg.Dilations, rep)
	if err != nil {
		return nil, err
	}
	sc := m.Scratch()
	forward := func(img *imaging.Image) *nn.Tensor {
		rep.pass++
		in := segment.ToTensorScratch(img, sc)
		out := seq.Forward(in, false)
		sc.Put(in)
		return out
	}

	rep.rec = newRecorder(time.Now(), 0)
	for i := 0; i < segPasses; i++ {
		for _, f := range frames {
			sc.Put(forward(f.img))
		}
	}
	segSelf := perPass(rep.rec.spans)

	rep.rec = newRecorder(time.Now(), 0)
	nn.SetDropoutMode(m.Net, nn.AlwaysOn)
	defer nn.SetDropoutMode(m.Net, nn.Auto)
	for _, c := range crops {
		nn.ReseedDropout(m.Net, seed)
		for s := 0; s < samples; s++ {
			out := forward(c)
			t := time.Now()
			probs := nn.SoftmaxChannelsInPlace(out)
			rep.rec.add(0, 0, rep.pass, "softmax", t, time.Now())
			sc.Put(probs)
		}
	}
	mcSelf := perPass(rep.rec.spans)

	out := map[string]metric{}
	cost := map[string]float64{}
	var total float64
	for _, name := range nnLayerNames {
		mc := median(mcSelf[name])
		out["nn."+name+".mc_ms"] = metric{Value: mc, Unit: "ms", N: len(mcSelf[name])}
		if name != "softmax" {
			out["nn."+name+".seg_ms"] = metric{Value: median(segSelf[name]), Unit: "ms", N: len(segSelf[name])}
		}
		mult := float64(samples)
		if once[name] {
			mult = 1
		}
		cost[name] = mc * mult
		total += cost[name]
	}
	for _, name := range nnLayerNames {
		out["nn."+name+".verdict_share"] = metric{Value: cost[name] / total, Unit: "ratio"}
	}
	return out, nil
}

// wrapLayers puts a timer around each layer of the MSDnet stack and
// returns the layers before the first dropout (the stem a verdict computes
// once). It fails when the network no longer has the layers the names
// describe.
func wrapLayers(seq *nn.Sequential, dilations []int, rep *replay) (map[string]bool, error) {
	var names []string
	convs, drops := 0, 0
	once := map[string]bool{}
	for i, l := range seq.Layers {
		var name string
		switch v := l.(type) {
		case *nn.Conv2D:
			name = map[int]string{0: "stem_conv", 1: "head"}[convs]
			convs++
		case *nn.BatchNorm2D:
			name = "stem_bn"
		case *nn.ReLU:
			name = "stem_relu"
		case *nn.Dropout:
			name = fmt.Sprintf("dropout%d", drops+1)
			drops++
		case *nn.ParallelConcat:
			name = "concat"
			if len(v.Branches) != len(dilations) {
				return nil, fmt.Errorf("nn replay: %d branches for %d dilations", len(v.Branches), len(dilations))
			}
			for j, b := range v.Branches {
				v.Branches[j] = &layerTimer{Layer: b, name: fmt.Sprintf("branch_d%d", dilations[j]), rep: rep}
				names = append(names, fmt.Sprintf("branch_d%d", dilations[j]))
			}
		case *nn.Upsample2x:
			name = "upsample"
		}
		if name == "" {
			return nil, fmt.Errorf("nn replay: unexpected layer %d (%T)", i, l)
		}
		if drops == 0 {
			once[name] = true
		}
		seq.Layers[i] = &layerTimer{Layer: l, name: name, rep: rep}
		names = append(names, name)
	}
	names = append(names, "softmax")
	if !sameNames(names, nnLayerNames) {
		return nil, fmt.Errorf("nn replay: network layers %v, want %v", names, nnLayerNames)
	}
	return once, nil
}

// sameNames reports whether got holds exactly the names of want.
func sameNames(got, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	seen := map[string]bool{}
	for _, n := range got {
		seen[n] = true
	}
	for _, n := range want {
		if !seen[n] {
			return false
		}
	}
	return true
}

// perPass returns each span name's self time in every replay pass, in ms.
func perPass(spans []span) map[string][]float64 {
	byPass := map[int64][]span{}
	for _, s := range spans {
		byPass[s.Req] = append(byPass[s.Req], s)
	}
	out := map[string][]float64{}
	for _, ss := range byPass {
		for name, d := range selfTimes(ss) {
			out[name] = append(out[name], ms(d))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
