package engine

// Capturing reports whether the view currently accumulates a capture delta
// for subscribers.
func (v *View) Capturing() bool { return v.capture != nil }
