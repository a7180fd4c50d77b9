package cpu

// cpuid executes CPUID for leaf eax, subleaf ecx.
func cpuid(eax, ecx uint32) (a, b, c, d uint32)

// xgetbv returns the low word of XCR0.
func xgetbv() uint32

// detect reads the CPUID feature bits. AVX needs the OS to save the YMM
// registers (OSXSAVE set and XCR0 covering the XMM and YMM state); AVX2
// and FMA are usable only where AVX is. AVX512 also needs XCR0 to cover
// the opmask registers and both halves of the ZMM state (bits 5-7).
func detect() Features {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx, fma = 1 << 27, 1 << 28, 1 << 12
	if ecx1&(osxsave|avx) != osxsave|avx {
		return Features{}
	}
	xcr0 := xgetbv() // only where OSXSAVE is set: XGETBV faults elsewhere
	if xcr0&6 != 6 {
		return Features{}
	}
	f := Features{AVX: true, FMA: ecx1&fma != 0}
	if maxLeaf >= 7 {
		_, ebx7, _, _ := cpuid(7, 0)
		f.AVX2 = ebx7&(1<<5) != 0
		f.AVX512 = ebx7&(1<<16) != 0 && xcr0&0xe6 == 0xe6
	}
	return f
}
