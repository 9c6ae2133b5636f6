package a

import "pdmfix/pdm"

// Tests may use the unaccounted accessors freely: that is what they are
// for.
func peekInTest(m *pdm.Machine, a pdm.Addr) []pdm.Word {
	m.VerifyChecksums()
	return m.Peek(a)
}

// The error rule applies to tests too: a degraded-mode test that drops
// the error is not testing degraded mode.
func discardInTest(m *pdm.Machine) {
	m.TryBatchRead(nil) // want `discarded`
}
