//go:build !race

package tensor

const raceDetectorEnabled = false
