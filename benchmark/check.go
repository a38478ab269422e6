package main

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
)

// checker counts the operations a run attempted and the ones that
// failed. An operation fails on a transport error, a non-200 status, or
// an answer that differs from truth; any failure makes the command exit
// non-zero.
type checker struct {
	attempted atomic.Int64
	failed    atomic.Int64
	// shed counts 429 and 503 answers: load the server refused. Each is
	// also a failed operation; the workloads are sized so none occurs.
	shed atomic.Int64

	mu     sync.Mutex
	sample []string // the first few failure messages, for the report
}

// maxFailureSamples bounds the failure messages kept for the report.
const maxFailureSamples = 8

// expect counts one attempted operation and, when ok is false, one
// failure described by format.
func (c *checker) expect(ok bool, format string, args ...any) {
	c.attempted.Add(1)
	if !ok {
		c.fail(format, args...)
	}
}

// refused notes a non-200 status, counting the ones that shed load.
func (c *checker) refused(status int) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		c.shed.Add(1)
	}
}

// ok counts n attempted operations that all succeeded.
func (c *checker) ok(n int64) { c.attempted.Add(n) }

// fail counts one failed operation (the attempt is counted by the
// caller, through expect or ok).
func (c *checker) fail(format string, args ...any) {
	c.failed.Add(1)
	c.mu.Lock()
	if len(c.sample) < maxFailureSamples {
		c.sample = append(c.sample, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

// failures returns the retained failure messages.
func (c *checker) failures() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.sample...)
}
