package cpu

import "testing"

// TestDetectedNeedsAVX pins that AVX2 and FMA are reported only where AVX
// is: the kernels that use them also use the YMM state AVX reports.
func TestDetectedNeedsAVX(t *testing.T) {
	if (Detected.AVX2 || Detected.FMA) && !Detected.AVX {
		t.Fatalf("detected %+v: AVX2 or FMA without AVX", Detected)
	}
	if Use != Detected {
		t.Fatalf("Use = %+v at start, want Detected %+v", Use, Detected)
	}
}
