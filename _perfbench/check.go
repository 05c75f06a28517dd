package main

import (
	"bytes"
	"fmt"
	"math"
	"slices"

	"github.com/autoe2e/autoe2e/internal/core"
	"github.com/autoe2e/autoe2e/internal/sched"
	"github.com/autoe2e/autoe2e/internal/trace/colfmt"
)

// fingerprint is what the correctness check compares byte for byte: the
// trace encoded through colfmt.AppendRun, the final counters, and the bits
// of the final total precision.
type fingerprint struct {
	trace     []byte
	counters  []sched.TaskCounter
	precision uint64
}

func fingerprintOf(r *core.RunResult) fingerprint {
	return fingerprint{
		trace:     colfmt.AppendRun(nil, r.Trace),
		counters:  slices.Clone(r.Counters),
		precision: math.Float64bits(r.State.TotalPrecision()),
	}
}

// diff describes the first difference from want, or returns "".
func (f fingerprint) diff(want fingerprint) string {
	switch {
	case !bytes.Equal(f.trace, want.trace):
		return fmt.Sprintf("colfmt trace differs (%d vs %d bytes)", len(f.trace), len(want.trace))
	case !slices.Equal(f.counters, want.counters):
		return "counters differ"
	case f.precision != want.precision:
		return fmt.Sprintf("final total precision differs (%v vs %v)",
			math.Float64frombits(f.precision), math.Float64frombits(want.precision))
	}
	return ""
}

// checkAgainstFresh compares a sampled result against a fresh core.Run of
// the same config and records a failure on any difference.
func checkAgainstFresh(rep *report, what string, got fingerprint, cfg core.RunConfig) {
	fresh, err := core.Run(cfg)
	if err != nil {
		rep.fail("%s: fresh core.Run: %v", what, err)
		return
	}
	if d := got.diff(fingerprintOf(fresh)); d != "" {
		rep.mismatchf("%s: %s", what, d)
	}
}
