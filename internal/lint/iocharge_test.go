package lint

import "testing"

func TestIOCharge(t *testing.T) {
	runFixture(t, IOCharge, "iocharge/a")
}

// TestBatchErr checks the batch-error rule inside the machine's own
// package, where iocharge's other checks are waived.
func TestBatchErr(t *testing.T) {
	runFixture(t, IOCharge, "iocharge/pdm")
}
