//go:build race

package workload

// raceDetector tells allocation pins that the race detector's
// instrumentation allocates on its own, so their counts do not apply.
const raceDetector = true
