//go:build !amd64

package tensor

// haveAVX2 is false off amd64: DenseInto always runs denseGeneric.
const haveAVX2 = false

// denseAVX2 exists only on amd64; dense never calls it here.
func denseAVX2(dst, x, w, b []float64, rows, k, n int, relu bool) {
	panic("tensor: AVX2 kernel called off amd64")
}
