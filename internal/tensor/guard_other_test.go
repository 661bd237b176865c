//go:build !linux

package tensor

import "testing"

// guardedCopy returns a copy of data. Only the Linux form follows it
// with an unreadable page.
func guardedCopy(t *testing.T, data []float64) []float64 {
	return append([]float64(nil), data...)
}
