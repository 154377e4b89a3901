package prog

// SetScoreHook makes fn see every QualityNamed call until the returned
// function removes it.
func SetScoreHook(fn func(names []string, ref, res *Result)) (remove func()) {
	scoreHook = fn
	return func() { scoreHook = nil }
}
