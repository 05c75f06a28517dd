package main

import (
	"strings"
	"sync"
	"time"
)

// refNominalNs is about what one refWork pass took on the reference host
// (2 vCPUs, see README.md), one pass on each processor at once, when the
// benchmark was defined; it varied by tens of percent from minute to minute.
const refNominalNs = 7e6

// refWork is a fixed piece of work that does not use the program under
// test: an event heap with random keys and some float arithmetic, the kind
// of work a discrete-event simulator does. It returns a checksum so the
// compiler cannot drop it.
func refWork() uint64 {
	const size = 1024
	keys := make([]float64, 0, size)
	x := uint64(0x9e3779b97f4a7c15)
	next := func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(x>>11) / (1 << 53)
	}
	push := func(k float64) {
		keys = append(keys, k)
		for i := len(keys) - 1; i > 0; {
			p := (i - 1) / 2
			if keys[p] <= keys[i] {
				break
			}
			keys[p], keys[i] = keys[i], keys[p]
			i = p
		}
	}
	pop := func() float64 {
		top := keys[0]
		last := len(keys) - 1
		keys[0] = keys[last]
		keys = keys[:last]
		for i := 0; ; {
			l, m := 2*i+1, i
			if l < last && keys[l] < keys[m] {
				m = l
			}
			if l+1 < last && keys[l+1] < keys[m] {
				m = l + 1
			}
			if m == i {
				break
			}
			keys[m], keys[i] = keys[i], keys[m]
			i = m
		}
		return top
	}
	for i := 0; i < size; i++ {
		push(next())
	}
	acc := 0.0
	for i := 0; i < 60000; i++ {
		t := pop()
		acc += t*0.5 + acc*1e-9
		push(t + next())
	}
	return uint64(acc) ^ x
}

// hostSpeed samples how long refWork takes on this host, interleaved with
// the measured work, so figures can be stated at the reference host's
// speed: the shared host's speed drifts by tens of percent over minutes,
// for this program and refWork alike.
type hostSpeed struct {
	ns   sample
	sink uint64
}

// measure runs refWork once on each of n goroutines at once and records
// their mean time. Work spread over n workers runs at the processors'
// mean speed, so one slow processor must not set the sample.
func (h *hostSpeed) measure(n int) {
	sums := make([]uint64, n)
	took := make(sample, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			sums[g] = refWork()
			took[g] = float64(time.Since(t0))
		}()
	}
	wg.Wait()
	h.ns.add(took.mean())
	for _, s := range sums {
		h.sink ^= s
	}
}

// slowdown is the median refWork time over its nominal: above 1 when the
// host runs slower than the reference.
func (h *hostSpeed) slowdown() float64 { return h.ns.p50() / refNominalNs }

// computeTimed are the end-to-end figures of the batch workloads that time
// computation, which the host's speed scales.
var computeTimed = []string{"setup_s", "runs_per_s", "campaign_s", "lat_p50_ms.low", "lat_p50_ms.mid", "lat_p50_ms.high"}

// normalize restates the named figures at the reference host's speed: a
// time is divided by the slowdown and a rate (unit ending in /s)
// multiplied by it. Each figure as measured is kept as raw.<name>.
func (h *hostSpeed) normalize(rep *report, names ...string) {
	slow := h.slowdown()
	for _, name := range names {
		m, ok := rep.metrics[name]
		if !ok {
			continue
		}
		rep.set("raw."+name, m.Unit, m.Value)
		if strings.HasSuffix(m.Unit, "/s") {
			rep.set(name, m.Unit, m.Value*slow)
		} else {
			rep.set(name, m.Unit, m.Value/slow)
		}
	}
	rep.set("host.slowdown", "ratio", slow)
	rep.notef("host slowdown %.4f: median of %d refWork samples over its nominal %.1f ms; %s are stated at the reference host's speed, raw.* as measured",
		slow, len(h.ns), refNominalNs/1e6, strings.Join(names, ", "))
}
