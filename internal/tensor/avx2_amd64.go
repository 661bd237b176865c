package tensor

// haveAVX2 reports whether the CPU and OS support AVX2, checked once at
// start-up; the dense kernel and AdamStep.Update run their assembly
// loops only when it holds.
var haveAVX2 = cpuHasAVX2()

// cpuHasAVX2 needs CPUID leaf 1's OSXSAVE and AVX bits, XCR0's XMM and
// YMM state bits (the OS saves the 256-bit registers), and CPUID leaf
// 7's AVX2 bit.
func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0b110 != 0b110 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register XCR0.
func xgetbv() (eax, edx uint32)

// denseAVX2 is the assembly form of denseGeneric (same arguments, same
// strides, bit-identical results). It requires haveAVX2.
//
//go:noescape
func denseAVX2(dst, x, w, b, c []float64, rows, k, kc, n, xs, xr, wp, wk int, relu bool)

// adamAVX2 is the assembly form of AdamStep.Update's Go loop over the
// first len(value)/4·4 elements (bit-identical results; c1 = 1−β₁,
// c2 = 1−β₂). It requires haveAVX2.
//
//go:noescape
func adamAVX2(value, grad, m, v []float64, wd, b1, c1, b2, c2, bc1, bc2, lr, eps float64)
