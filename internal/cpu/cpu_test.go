package cpu

import "testing"

// TestDetectedNeedsAVX pins that AVX2, FMA and AVX512 are reported only
// where AVX is: the kernels that use them also use the YMM state AVX
// reports, and a CPU without AVX-512 runs the AVX bodies.
func TestDetectedNeedsAVX(t *testing.T) {
	if (Detected.AVX2 || Detected.FMA || Detected.AVX512) && !Detected.AVX {
		t.Fatalf("detected %+v: AVX2, FMA or AVX512 without AVX", Detected)
	}
	if Use != Detected {
		t.Fatalf("Use = %+v at start, want Detected %+v", Use, Detected)
	}
}
