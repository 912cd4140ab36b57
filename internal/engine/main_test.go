package engine

import (
	"testing"

	"terids/internal/testutil"
)

// TestMain gates the package on goroutine hygiene: every Engine the tests
// start must be fully torn down by Close — no orphaned impute workers, shard
// loops, mergers, or follower tails survive the suite.
func TestMain(m *testing.M) {
	testutil.VerifyNoLeaks(m)
}
