package nn

// softmaxAVX is softmaxChannelsInto's body for groups of softmaxGroup
// pixels (mc_amd64.s). From the first of the np pixels whose channel ci
// sits at x[ci*stride:], with out laid out alike (it may alias x), it
// computes whole groups while one is left and returns how many pixels it
// computed. It stops, before writing anything of it, at a group where any
// d = v - m falls outside [-104, 0] — a NaN or infinite logit, or logits
// spread past 104 — for softmaxPixels to compute. Each e is bit for bit
// float32(math.Exp(float64(d))): the vector exp repeats, on float64 lanes,
// the operations of the FMA path of math.Exp on amd64, the path math.Exp
// takes on every CPU that runs this kernel. It may run only where cpu.Use
// has AVX2 and FMA.
//
//go:noescape
func softmaxAVX(out, x []float32, np, c, stride int) int

// expAVX is softmaxAVX's exp on its own, for the tests: dst[i] =
// float32(math.Exp(float64(src[i]))) for every src[i] in [-104, 0].
// len(src) must be a multiple of four and dst as long. It may run only
// where cpu.Use has AVX2 and FMA.
//
//go:noescape
func expAVX(dst, src []float32)

// applyKeepAVX is applyKeepGo in AVX2 (mc_amd64.s): each unit is
// bits(v*scale) & -keep, eight at a time and the rest one by one. dst and
// src must hold len(keep) elements. It may run only where cpu.Use has
// AVX2.
//
//go:noescape
func applyKeepAVX(dst, src []float32, keep []byte, scale float32)
