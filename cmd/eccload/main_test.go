package main

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestRunSamplesOnlyAnsweredCalls drives run with a stub op that fails
// every other call at once: only the answered calls may be counted and
// sampled, or shed and failed requests would inflate ops and pull the
// percentiles down to the latency of a refusal.
func TestRunSamplesOnlyAnsweredCalls(t *testing.T) {
	var answered atomic.Int64
	op := func(w, i int) bool {
		if i%2 == 1 {
			return false
		}
		time.Sleep(time.Millisecond)
		answered.Add(1)
		return true
	}
	res := run(2, 50*time.Millisecond, 1, op)
	if res.ops == 0 || int64(res.ops) != answered.Load() {
		t.Fatalf("run counted %d ops, want the %d answered calls", res.ops, answered.Load())
	}
	if res.p50 < time.Millisecond {
		t.Fatalf("p50 %v is below the answered calls' 1ms floor: failed calls were sampled", res.p50)
	}
}
