package simtime

import (
	"fmt"
	"testing"
)

// firing is one observed event execution, labelled by scheduling order.
type firing struct {
	label int
	at    Time
}

// enginePair drives the pooled and reference engines through an identical
// operation sequence and records each engine's firings for comparison.
type enginePair struct {
	pooled *Engine
	ref    *ReferenceEngine

	pooledLog []firing
	refLog    []firing
	// ids holds the EventID issued by each engine for every schedule op, so
	// fuzzed cancels target the same logical event on both.
	pooledIDs []EventID
	refIDs    []EventID
}

func newEnginePair() *enginePair {
	return &enginePair{pooled: NewEngine(), ref: NewReferenceEngine()}
}

func (p *enginePair) schedule(at Time) {
	label := len(p.pooledIDs)
	p.pooledIDs = append(p.pooledIDs, p.pooled.ScheduleCall(at, func(now Time, _ any) {
		p.pooledLog = append(p.pooledLog, firing{label, now})
	}, nil))
	p.refIDs = append(p.refIDs, p.ref.ScheduleCall(at, func(now Time, _ any) {
		p.refLog = append(p.refLog, firing{label, now})
	}, nil))
}

func (p *enginePair) cancel(t *testing.T, op int) {
	if len(p.pooledIDs) == 0 {
		return
	}
	i := op % len(p.pooledIDs)
	got := p.pooled.Cancel(p.pooledIDs[i])
	want := p.ref.Cancel(p.refIDs[i])
	if got != want {
		t.Fatalf("Cancel(event %d) = %v on pooled, %v on reference", i, got, want)
	}
}

func (p *enginePair) run(t *testing.T, until Time) {
	p.pooled.Run(until)
	p.ref.Run(until)
	p.compare(t)
}

func (p *enginePair) compare(t *testing.T) {
	t.Helper()
	if p.pooled.Now() != p.ref.Now() {
		t.Fatalf("clocks diverged: pooled %v, reference %v", p.pooled.Now(), p.ref.Now())
	}
	if p.pooled.Pending() != p.ref.Pending() {
		t.Fatalf("pending diverged: pooled %d, reference %d", p.pooled.Pending(), p.ref.Pending())
	}
	if len(p.pooledLog) != len(p.refLog) {
		t.Fatalf("firing counts diverged: pooled %d, reference %d", len(p.pooledLog), len(p.refLog))
	}
	for i := range p.pooledLog {
		if p.pooledLog[i] != p.refLog[i] {
			t.Fatalf("firing %d diverged: pooled %+v, reference %+v", i, p.pooledLog[i], p.refLog[i])
		}
	}
}

// TestEngineMatchesReferenceFuzz drives the pooled and reference engines
// through randomized schedule/cancel/run sequences and requires identical
// firing order, firing instants, Cancel results, clock, and queue depth.
// Slots are recycled heavily across the runs, so any aliasing or ordering
// defect in the arena shows up as a divergence.
func TestEngineMatchesReferenceFuzz(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := NewRand(seed)
			p := newEnginePair()
			for op := 0; op < 400; op++ {
				switch x := rng.Intn(10); {
				case x < 5: // schedule near the current clock
					at := p.pooled.Now().Add(Duration(rng.Intn(1000)))
					p.schedule(at)
				case x < 7: // cancel a random (possibly resolved) event
					p.cancel(t, rng.Intn(1<<30))
				case x < 9: // advance a short horizon
					p.run(t, p.pooled.Now().Add(Duration(rng.Intn(500))))
				default: // single-step both
					gotStep := p.pooled.Step()
					wantStep := p.ref.Step()
					if gotStep != wantStep {
						t.Fatalf("Step = %v on pooled, %v on reference", gotStep, wantStep)
					}
					p.compare(t)
				}
			}
			p.run(t, Never-1)
		})
	}
}

// TestEngineEqualTimestampFuzz stresses FIFO ordering at a single instant
// while slots are recycled: batches of same-time events with interleaved
// cancels must fire in scheduling order on both engines even though the
// pooled engine hands out recently freed slots in LIFO order.
func TestEngineEqualTimestampFuzz(t *testing.T) {
	rng := NewRand(7)
	p := newEnginePair()
	for round := 0; round < 50; round++ {
		at := p.pooled.Now().Add(Duration(1 + rng.Intn(3)))
		for i := 0; i < 8; i++ {
			p.schedule(at)
		}
		for i := 0; i < 4; i++ {
			p.cancel(t, rng.Intn(1<<30))
		}
		for i := 0; i < 4; i++ {
			p.schedule(at) // reuses just-cancelled slots at the same instant
		}
		p.run(t, at)
	}
}

// TestEngineCancelledSlotNotFiredUnderStaleID is the aliasing gate: after a
// cancelled event's slot is reused by a later event, the stale EventID must
// neither fire nor cancel the new occupant.
func TestEngineCancelledSlotNotFiredUnderStaleID(t *testing.T) {
	e := NewEngine()
	aRan, bRan := false, false
	idA := e.ScheduleCall(At(1), func(Time, any) { aRan = true }, nil)
	if !e.Cancel(idA) {
		t.Fatal("first Cancel reported not pending")
	}
	// The freed slot is the only one on the free list, so B reuses it.
	idB := e.ScheduleCall(At(2), func(Time, any) { bRan = true }, nil)
	if uint32(idA) != uint32(idB) {
		t.Fatalf("test setup: B (id %#x) did not reuse A's slot (id %#x)", idB, idA)
	}
	if e.Cancel(idA) {
		t.Fatal("stale ID cancelled the slot's new occupant")
	}
	e.Run(At(3))
	if aRan {
		t.Fatal("cancelled event ran")
	}
	if !bRan {
		t.Fatal("slot-reusing event did not run")
	}
}

// TestEngineCancelAlreadyPopped covers the executed-event half of the
// staleness contract: once an event has been popped and run, its ID is
// dead — both from outside and from within its own callback.
func TestEngineCancelAlreadyPopped(t *testing.T) {
	e := NewEngine()
	var idA EventID
	selfCancel := true
	idA = e.ScheduleCall(At(1), func(Time, any) {
		selfCancel = e.Cancel(idA)
	}, nil)
	bRan := false
	e.ScheduleCall(At(2), func(Time, any) { bRan = true }, nil)
	e.Run(At(1))
	if selfCancel {
		t.Fatal("Cancel of the currently executing event reported pending")
	}
	if e.Cancel(idA) {
		t.Fatal("Cancel of an already-run event reported pending")
	}
	e.Run(At(3))
	if !bRan {
		t.Fatal("later event lost after cancelling a popped ID")
	}
}

// TestEngineStopMidEventWithPooledSlots verifies that Stop leaves the arena
// coherent: pending pooled events survive the stop, resume in order on the
// next Run, and new events scheduled while stopped do not alias them.
func TestEngineStopMidEventWithPooledSlots(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 1; i <= 5; i++ {
		i := i
		e.ScheduleCall(At(float64(i)), func(Time, any) {
			order = append(order, i)
			if i == 2 {
				e.Stop()
			}
		}, nil)
	}
	e.Run(At(10))
	if len(order) != 2 || e.Pending() != 3 {
		t.Fatalf("after Stop: order = %v, pending = %d; want 2 fired, 3 pending", order, e.Pending())
	}
	if e.Now() != At(2) {
		t.Fatalf("Now = %v after Stop, want the stopping instant 2s", e.Now())
	}
	// Scheduling while stopped must take fresh or safely recycled slots.
	e.ScheduleCall(At(2.5), func(Time, any) { order = append(order, 25) }, nil)
	e.Run(At(10))
	want := []int{1, 2, 25, 3, 4, 5}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestEveryStopFromSiblingEvent covers the stop-function racing the
// ticker's re-arm: a separate event at the same instant as a pending tick
// calls stop. The sibling was scheduled first (lower sequence number), so
// it fires before the tick and must cancel the already-armed occurrence at
// its own instant — the tick at 3s never fires.
func TestEveryStopFromSiblingEvent(t *testing.T) {
	e := NewEngine()
	count := 0
	stop := e.Every(Second, func(Time) { count++ })
	e.ScheduleCall(At(3), func(Time, any) { stop() }, nil)
	e.Run(At(10))
	if count != 2 {
		t.Fatalf("count = %d, want 2 ticks before the sibling stop cancels the armed tick at 3s", count)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after stop, want 0 (re-armed tick cancelled)", e.Pending())
	}
}

// TestEveryRestartAfterStop verifies a stopped ticker's slot is recycled
// safely: a new Every must not be affected by the dead ticker's stale ID.
func TestEveryRestartAfterStop(t *testing.T) {
	e := NewEngine()
	first, second := 0, 0
	stop := e.Every(Second, func(Time) { first++ })
	e.Run(At(2))
	stop()
	e.Every(Second, func(Time) { second++ })
	stop() // stale stop: its cancelled ID must not kill the new ticker
	e.Run(At(5))
	if first != 2 {
		t.Fatalf("first ticker fired %d times, want 2", first)
	}
	if second != 3 {
		t.Fatalf("second ticker fired %d times, want 3 (stale stop interfered)", second)
	}
}

// TestEngineTickZeroAlloc is the substrate's steady-state allocation gate:
// once warmed up, executing pooled events — including a periodic ticker's
// re-arm — must not allocate at all.
func TestEngineTickZeroAlloc(t *testing.T) {
	e := NewEngine()
	ticks := 0
	e.Every(Millisecond, func(Time) { ticks++ })
	e.Run(At(0.01)) // warm the arena, heap and free list
	allocs := testing.AllocsPerRun(1000, func() {
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state engine tick allocates %v times per event, want 0", allocs)
	}
	if ticks < 1000 {
		t.Fatalf("ticker fired %d times, want >= 1000 (gate did not exercise the tick path)", ticks)
	}
}

// TestScheduleCallZeroAlloc pins the closure-free scheduling path: with a
// pointer-shaped argument, a warmed engine schedules and fires events with
// zero allocations per cycle.
func TestScheduleCallZeroAlloc(t *testing.T) {
	e := NewEngine()
	type counter struct{ n int }
	c := &counter{}
	fire := func(now Time, arg any) { arg.(*counter).n++ }
	// Warm: one slot allocated, then recycled forever.
	e.ScheduleCall(e.Now().Add(Microsecond), fire, c)
	e.Step()
	allocs := testing.AllocsPerRun(1000, func() {
		e.ScheduleCall(e.Now().Add(Microsecond), fire, c)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("ScheduleCall cycle allocates %v times, want 0", allocs)
	}
	// AllocsPerRun makes one extra warm-up call, so 1 + (1 + 1000) cycles.
	if c.n < 1001 {
		t.Fatalf("fired %d times, want >= 1001", c.n)
	}
}
