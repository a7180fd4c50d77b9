package segment

import (
	"fmt"
	"strings"

	"safeland/internal/imaging"
	"safeland/internal/urban"
)

// Confusion is an 8×8 pixel confusion matrix indexed [truth][predicted].
type Confusion struct {
	N [imaging.NumClasses][imaging.NumClasses]int64
}

// Add accumulates one truth/prediction pair of label maps.
func (c *Confusion) Add(truth, pred *imaging.LabelMap) {
	if truth.W != pred.W || truth.H != pred.H {
		panic(fmt.Sprintf("segment: confusion size mismatch %dx%d vs %dx%d",
			truth.W, truth.H, pred.W, pred.H))
	}
	for i, tc := range truth.Pix {
		pc := pred.Pix[i]
		if tc < imaging.NumClasses && pc < imaging.NumClasses {
			c.N[tc][pc]++
		}
	}
}

// PixelAccuracy returns the fraction of correctly classified pixels.
func (c *Confusion) PixelAccuracy() float64 {
	var correct, total int64
	for t := 0; t < imaging.NumClasses; t++ {
		for p := 0; p < imaging.NumClasses; p++ {
			total += c.N[t][p]
			if t == p {
				correct += c.N[t][p]
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// IoU returns the intersection-over-union of one class; the second result is
// false when the class appears in neither truth nor prediction.
func (c *Confusion) IoU(cl imaging.Class) (float64, bool) {
	var inter, union int64
	inter = c.N[cl][cl]
	for k := 0; k < imaging.NumClasses; k++ {
		union += c.N[cl][k] + c.N[k][cl]
	}
	union -= inter
	if union == 0 {
		return 0, false
	}
	return float64(inter) / float64(union), true
}

// MeanIoU averages IoU over classes present in truth or prediction.
func (c *Confusion) MeanIoU() float64 {
	var sum float64
	n := 0
	for cl := imaging.Class(0); cl < imaging.NumClasses; cl++ {
		if iou, ok := c.IoU(cl); ok {
			sum += iou
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// BusyRoadRecall treats the busy-road composite (road + cars) as one binary
// class and returns its recall — the safety-critical number: a missed
// busy-road pixel is a pixel the core function would declare landable.
func (c *Confusion) BusyRoadRecall() float64 {
	busy := func(k int) bool { return imaging.Class(k).BusyRoad() }
	var tp, fn int64
	for t := 0; t < imaging.NumClasses; t++ {
		if !busy(t) {
			continue
		}
		for p := 0; p < imaging.NumClasses; p++ {
			if busy(p) {
				tp += c.N[t][p]
			} else {
				fn += c.N[t][p]
			}
		}
	}
	if tp+fn == 0 {
		return 0
	}
	return float64(tp) / float64(tp+fn)
}

// BusyRoadPrecision is the binary precision of the busy-road composite.
func (c *Confusion) BusyRoadPrecision() float64 {
	busy := func(k int) bool { return imaging.Class(k).BusyRoad() }
	var tp, fp int64
	for t := 0; t < imaging.NumClasses; t++ {
		for p := 0; p < imaging.NumClasses; p++ {
			if !busy(p) {
				continue
			}
			if busy(t) {
				tp += c.N[t][p]
			} else {
				fp += c.N[t][p]
			}
		}
	}
	if tp+fp == 0 {
		return 0
	}
	return float64(tp) / float64(tp+fp)
}

// String renders the headline metrics.
func (c *Confusion) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pixel accuracy %.3f, mean IoU %.3f, busy-road recall %.3f precision %.3f",
		c.PixelAccuracy(), c.MeanIoU(), c.BusyRoadRecall(), c.BusyRoadPrecision())
	return b.String()
}

// Evaluate runs the model over the scenes and accumulates a confusion
// matrix.
func Evaluate(m *Model, scenes []*urban.Scene) *Confusion {
	var conf Confusion
	for _, s := range scenes {
		pred := m.Predict(s.Image)
		conf.Add(s.Labels, pred)
	}
	return &conf
}
