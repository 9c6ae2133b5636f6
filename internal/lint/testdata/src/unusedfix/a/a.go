// Fixture for unused-waiver detection. The test runs only the
// lockorder analyzer, so waivers naming other rules are out of scope
// and must be left alone, unless the rule they name does not exist.
package unusedfix

import "sync"

type Pad struct {
	mu sync.Mutex
}

type Pad2 struct {
	mu sync.Mutex
}

// used: the waiver suppresses a real inversion (Pad ranks below Pad2),
// so it is not stale.
func used(a *Pad, b *Pad2) {
	b.mu.Lock()
	a.mu.Lock() //lint:pdm-allow lockorder: fixture inversion kept on purpose
	a.mu.Unlock()
	b.mu.Unlock()
}

// stale: nothing here trips lockorder, so the waiver is dead weight.
func stale(a *Pad) {
	a.mu.Lock() //lint:pdm-allow lockorder: stale on purpose // want `suppresses no diagnostic`
	a.mu.Unlock()
}

// foreign: detrand is not part of this run, so whether the waiver is
// load-bearing is unknowable here; nothing is reported.
func foreign(a *Pad) {
	a.mu.Lock() //lint:pdm-allow detrand: checked only under the full suite
	a.mu.Unlock()
}

// quieted: naming unusedwaiver itself opts out of staleness checking.
func quieted(a *Pad) {
	a.mu.Lock() //lint:pdm-allow lockorder, unusedwaiver: intentionally broad for the fixture
	a.mu.Unlock()
}

// misnamed: nosuchrule is no pdmlint rule at all (a typo, or a deleted
// analyzer), so no run can make the waiver load-bearing.
func misnamed(a *Pad) {
	a.mu.Lock() //lint:pdm-allow nosuchrule: names a rule that does not exist // want `"nosuchrule", which is no pdmlint rule`
	a.mu.Unlock()
}
