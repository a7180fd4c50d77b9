// Package cpu reports which vector instruction sets the inference kernels
// of package nn may run. Detected is what this CPU and its operating
// system support, read once at start-up; Use is the set the kernels select
// their bodies by. Only tests write Use, to run the portable bodies on a
// vector machine. The package is internal to the module, so no caller
// outside it can select a body: this is not a user option.
package cpu

// Features is a set of x86 instruction-set extensions.
type Features struct {
	// AVX is 256-bit float vectors, with the YMM state saved by the OS.
	AVX bool
	// AVX2 is 256-bit integer vectors.
	AVX2 bool
	// FMA is fused multiply-add.
	FMA bool
	// AVX512 is AVX-512F: 512-bit float vectors and opmasks, with the
	// opmask and ZMM state saved by the OS.
	AVX512 bool
}

// Detected is the feature set of this CPU and OS: none off amd64.
var Detected = detect()

// Use is the feature set nn's kernels run on: Detected, unless a test
// narrows it.
var Use = Detected
