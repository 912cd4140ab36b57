//go:build !unix

package bench

import (
	"testing"
	"time"
)

// cpuTime falls back to the benchmark's wall clock where getrusage is not
// available.
func cpuTime(b *testing.B) time.Duration { return b.Elapsed() }
