//go:build !amd64

package tensor

// haveAVX2 and haveAVX512 are false off amd64: the dense kernel and
// AdamStep.Update always run their Go loops.
const (
	haveAVX2   = false
	haveAVX512 = false
)

// denseAVX2 exists only on amd64; dense never calls it here.
func denseAVX2(dst, x, w, b, c []float64, rows, k, kc, n, xs, xr, wp, wk int, relu bool) {
	panic("tensor: AVX2 kernel called off amd64")
}

// denseAVX512 exists only on amd64; dense never calls it here.
func denseAVX512(dst, x, w, b, c []float64, rows, k, kc, n, xs, xr, wp, wk int, relu bool) {
	panic("tensor: AVX-512 kernel called off amd64")
}

// adamAVX2 exists only on amd64; AdamStep.Update never calls it here.
func adamAVX2(value, grad, m, v []float64, wd, b1, c1, b2, c2, bc1, bc2, lr, eps float64) {
	panic("tensor: AVX2 Adam called off amd64")
}

// The column-moments and nearest-point assembly exists only on amd64;
// ColumnMomentsInto and MinSquaredDistance never call it here.
func momentsAVX512(m *Moments, rows, cols int, inv float64) {
	panic("tensor: AVX-512 moments called off amd64")
}

func moments4AVX512(m *[momentsGroup]Moments, rows, cols int, inv float64) {
	panic("tensor: AVX-512 moments called off amd64")
}

func momentsAVX2(m *Moments, rows, cols int, inv float64) {
	panic("tensor: AVX2 moments called off amd64")
}

func moments4AVX2(m *[momentsGroup]Moments, rows, cols int, inv float64) {
	panic("tensor: AVX2 moments called off amd64")
}

func nearestAVX512(v, p []float64, dim, stride int) float64 {
	panic("tensor: AVX-512 nearest point called off amd64")
}

func nearestAVX2(v, p []float64, dim, stride int) float64 {
	panic("tensor: AVX2 nearest point called off amd64")
}
