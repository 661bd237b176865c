//go:build race

package detect

// raceDetectorEnabled mirrors the -race build tag so allocation pins
// can skip: under the race detector sync.Pool drops a share of the
// values put back, so pooled scratch is reallocated at random.
const raceDetectorEnabled = true
