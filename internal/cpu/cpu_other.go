//go:build !amd64

package cpu

// detect reports no feature: the vector kernels exist on amd64 only.
func detect() Features { return Features{} }
