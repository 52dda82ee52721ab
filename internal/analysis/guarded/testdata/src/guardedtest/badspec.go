package guardedtest

import "sync"

// badspec exercises the malformed-annotation diagnostics: unknown guard
// fields, non-mutex guards, compound specs, and empty specs all report
// at the directive.
type badspec struct {
	mu sync.Mutex
	a  int //oskit:guardedby lock // want `bad //oskit:guardedby spec "lock": no field "lock" in badspec`
	b  int //oskit:guardedby a // want `bad //oskit:guardedby spec "a": "a" is not a sync\.Mutex/RWMutex \(or a wrapper embedding one\)`
	c  int //oskit:guardedby mu+mu // want `bad //oskit:guardedby spec "mu\+mu": a field has one guard, not a compound of several`
	d  int /* want `//oskit:guardedby needs a guard: a field path \(mu, s\.mu\) or Type\.lock` */ //oskit:guardedby
}
