package lockhooktest

// staleWaiver: a waiver that suppresses nothing is itself a diagnostic
// once every analyzer it names has run — here lockhook did, and the
// hook runs with no lock held.
func (n *nic) staleWaiver(f []byte) {
	n.rxHook(f) /* want `waiver for lockhook suppressed nothing` */ //oskit:allow lockhook -- fixture: nothing to suppress
}

// otherAnalyzer: a waiver naming an analyzer that did not run in this
// invocation (this fixture runs lockhook alone) is left alone.
func (n *nic) otherAnalyzer() {
	n.frames++ //oskit:allow guarded -- fixture: guarded does not run here
}
