package congest

// FansOut exposes the parallel engine's fan-out rule to the external
// tests.
var FansOut = fansOut

// SetInlineWorkCutoff overrides the fan-out cutoff for the external
// tests and returns the function that restores it.
func SetInlineWorkCutoff(c int) (restore func()) {
	old := inlineWorkCutoff
	inlineWorkCutoff = c
	return func() { inlineWorkCutoff = old }
}
