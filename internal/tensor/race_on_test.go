//go:build race

package tensor

// raceDetectorEnabled mirrors the -race build tag so allocation pins on
// pooled kernels can skip: under the race detector sync.Pool drops a
// share of the values put back, so a pooled buffer is reallocated at
// random.
const raceDetectorEnabled = true
