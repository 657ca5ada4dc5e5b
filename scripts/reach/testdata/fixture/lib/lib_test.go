package lib

import "testing"

// TestOnlyUses names what only tests use; the probe reads no test file.
func TestOnlyUses(t *testing.T) {
	_ = Opts{Unwritten: 1}
	_ = TestOnly{}
	_ = TestOnlyConst + TestOnlyVar
}
