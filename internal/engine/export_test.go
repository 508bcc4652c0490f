package engine

// Capturing reports whether the view currently accumulates a capture delta
// for subscribers.
func (v *View) Capturing() bool { return v.capture != nil }

// Subscribers reports the number of active subscriptions per view.
func (e *Engine) Subscribers() map[string]int {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]int, len(e.subs))
	for view, list := range e.subs {
		out[view] = len(list)
	}
	return out
}
