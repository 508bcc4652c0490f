//go:build race

package main

// raceDetector tells the timing assertion that the binary runs several times
// slower than the one it was calibrated for.
const raceDetector = true
