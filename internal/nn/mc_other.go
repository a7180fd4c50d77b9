//go:build !amd64

package nn

// softmaxAVX exists only on amd64; softmaxChannelsInto never calls it
// elsewhere.
func softmaxAVX(out, x []float32, np, c, stride int) int {
	panic("nn: AVX softmax called off amd64")
}

// applyKeepAVX exists only on amd64; applyKeep never calls it elsewhere.
func applyKeepAVX(dst, src []float32, keep []byte, scale float32) {
	panic("nn: AVX dropout mask called off amd64")
}
