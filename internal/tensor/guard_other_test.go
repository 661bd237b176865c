//go:build !linux

package tensor

import "testing"

// guardPages hands out plain copies of operands. Only the Linux form
// follows each with an unreadable page.
type guardPages struct{}

func (*guardPages) copy(t *testing.T, data []float64) []float64 {
	return append([]float64(nil), data...)
}

func (*guardPages) free() {}
