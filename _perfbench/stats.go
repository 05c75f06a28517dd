package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// sample collects observations of one quantity for percentile reporting.
type sample []float64

func (s *sample) add(v float64) { *s = append(*s, v) }

// quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// between order statistics, or 0 for an empty sample.
func (s sample) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

func (s sample) p50() float64 { return s.quantile(0.5) }
func (s sample) p99() float64 { return s.quantile(0.99) }

func (s sample) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

func (s sample) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates a run's metrics, its attempt and failure counts, and
// notes (sample counts, reconciliations) printed for the reader.
type report struct {
	metrics    map[string]metric
	order      []string
	attempted  int
	failed     int
	mismatches int
	notes      []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts one failed operation and records why.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.notef("FAIL: "+format, args...)
}

// mismatchf counts one output that differs from its reference: a failed
// operation that also makes the whole run incorrect.
func (r *report) mismatchf(format string, args ...any) {
	r.mismatches++
	r.fail("mismatch: "+format, args...)
}

func (r *report) mismatch() bool { return r.mismatches > 0 }
