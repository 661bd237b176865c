package tensor

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

// cpuHasAVX512 needs CPUID leaf 7's AVX512F bit and XCR0's XMM, YMM,
// opmask and both ZMM state bits (the OS saves the 512-bit registers
// and the mask registers). Call it only where cpuHasAVX2 holds: that
// checks OSXSAVE and the leaf count first.
func cpuHasAVX512() bool {
	if xcr0, _ := xgetbv(); xcr0&0xe6 != 0xe6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx512f = 1 << 16
	return ebx7&avx512f != 0
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

// denseAVX512 is denseAVX2 on 512-bit registers (same arguments, same
// strides, bit-identical results). It requires haveAVX512.
//
//go:noescape
func denseAVX512(dst, x, w, b, c []float64, rows, k, kc, n, xs, xr, wp, wk int, relu bool)

// adamAVX2 is the assembly form of AdamStep.Update's Go loop over the
// first len(value)/4·4 elements (bit-identical results; c1 = 1−β₁,
// c2 = 1−β₂). It requires haveAVX2.
//
//go:noescape
func adamAVX2(value, grad, m, v []float64, wd, b1, c1, b2, c2, bc1, bc2, lr, eps float64)

// momentsAVX512 is the AVX-512 form of momentsGeneric over one matrix
// (bit-identical results; rows must be positive). It requires
// haveAVX512.
//
//go:noescape
func momentsAVX512(m *Moments, rows, cols int, inv float64)

// moments4AVX512 is momentsAVX512 over four matrices of one shape, with
// their add chains interleaved. It requires haveAVX512.
//
//go:noescape
func moments4AVX512(m *[momentsGroup]Moments, rows, cols int, inv float64)

// momentsAVX2 is the AVX2 form of momentsGeneric over one matrix
// (bit-identical results; rows must be positive). It requires haveAVX2.
//
//go:noescape
func momentsAVX2(m *Moments, rows, cols int, inv float64)

// moments4AVX2 is momentsAVX2 over four matrices of one shape, with
// their add chains interleaved. It requires haveAVX2.
//
//go:noescape
func moments4AVX2(m *[momentsGroup]Moments, rows, cols int, inv float64)

// nearestAVX512 is the AVX-512 form of nearestGeneric over a packed
// point set's data (bit-identical results; stride a positive multiple
// of 8). It requires haveAVX512.
//
//go:noescape
func nearestAVX512(v, p []float64, dim, stride int) float64

// nearestAVX2 is the AVX2 form of nearestGeneric over a packed point
// set's data (bit-identical results; stride a positive multiple of 8).
// It requires haveAVX2.
//
//go:noescape
func nearestAVX2(v, p []float64, dim, stride int) float64
