package nn

import "math"

// Adam is the Adam optimizer with bias correction.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	WeightDecay           float64

	t int
	m map[*Param][]float32
	v map[*Param][]float32
}

// NewAdam constructs an Adam optimizer with standard betas.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Param][]float32),
		v: make(map[*Param][]float32),
	}
}

// Step applies one update and zeroes the gradients.
func (o *Adam) Step(params []*Param) {
	o.t++
	b1 := float32(o.Beta1)
	b2 := float32(o.Beta2)
	lr := o.LR * math.Sqrt(1-math.Pow(o.Beta2, float64(o.t))) / (1 - math.Pow(o.Beta1, float64(o.t)))
	wd := float32(o.WeightDecay)
	for _, p := range params {
		m, ok := o.m[p]
		if !ok {
			m = make([]float32, len(p.Value.Data))
			v := make([]float32, len(p.Value.Data))
			o.m[p], o.v[p] = m, v
		}
		v := o.v[p]
		for i := range p.Value.Data {
			g := p.Grad.Data[i]
			if wd != 0 {
				g += wd * p.Value.Data[i]
			}
			m[i] = b1*m[i] + (1-b1)*g
			v[i] = b2*v[i] + (1-b2)*g*g
			p.Value.Data[i] -= float32(lr) * m[i] / (float32(math.Sqrt(float64(v[i]))) + float32(o.Eps))
			p.Grad.Data[i] = 0
		}
	}
}
