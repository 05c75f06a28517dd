package simtime

import (
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	tests := []struct {
		name string
		got  Duration
		want Duration
	}{
		{"one second", FromSeconds(1), Second},
		{"half second", FromSeconds(0.5), 500 * Millisecond},
		{"one milli", FromMillis(1), Millisecond},
		{"fractional milli", FromMillis(12.1), 12100 * Microsecond},
		{"rounding", FromMillis(0.0004), 0},
		{"rounding up", FromMillis(0.0006), 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.got != tt.want {
				t.Errorf("got %d, want %d", tt.got, tt.want)
			}
		})
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := At(1.0)
	t1 := t0.Add(250 * Millisecond)
	if got := t1.Sub(t0); got != 250*Millisecond {
		t.Errorf("Sub = %v, want 250ms", got)
	}
	if got := t1.Seconds(); got != 1.25 {
		t.Errorf("Seconds = %v, want 1.25", got)
	}
	if MinTime(t0, t1) != t0 || MaxTime(t0, t1) != t1 {
		t.Error("MinTime/MaxTime ordering wrong")
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.ScheduleCall(At(3), func(Time, any) { order = append(order, 3) }, nil)
	e.ScheduleCall(At(1), func(Time, any) { order = append(order, 1) }, nil)
	e.ScheduleCall(At(2), func(Time, any) { order = append(order, 2) }, nil)
	e.Run(At(10))
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != At(10) {
		t.Errorf("Now = %v, want 10s after drain", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.ScheduleCall(At(1), func(Time, any) { order = append(order, i) }, nil)
	}
	e.Run(At(2))
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("simultaneous events ran out of FIFO order: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick CallFunc
	tick = func(Time, any) {
		count++
		if count < 5 {
			e.AfterCall(Second, tick, nil)
		}
	}
	e.ScheduleCall(0, tick, nil)
	e.Run(At(100))
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if e.Now() != At(100) {
		t.Errorf("Now = %v, want 100s", e.Now())
	}
}

func TestEngineRunUntilBoundary(t *testing.T) {
	e := NewEngine()
	ran := false
	e.ScheduleCall(At(5), func(Time, any) { ran = true }, nil)
	e.Run(At(4))
	if ran {
		t.Fatal("event at 5s ran with horizon 4s")
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.Run(At(5)) // inclusive boundary
	if !ran {
		t.Fatal("event at 5s did not run with horizon 5s")
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	id := e.ScheduleCall(At(1), func(Time, any) { ran = true }, nil)
	if !e.Cancel(id) {
		t.Fatal("Cancel reported not pending")
	}
	if e.Cancel(id) {
		t.Fatal("double Cancel reported pending")
	}
	e.Run(At(2))
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestEngineCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine()
	var order []int
	ids := make([]EventID, 0, 5)
	for i := 1; i <= 5; i++ {
		i := i
		ids = append(ids, e.ScheduleCall(At(float64(i)), func(Time, any) { order = append(order, i) }, nil))
	}
	e.Cancel(ids[2]) // the event at 3s
	e.Run(At(10))
	want := []int{1, 2, 4, 5}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 5; i++ {
		e.ScheduleCall(At(float64(i)), func(Time, any) {
			count++
			if count == 2 {
				e.Stop()
			}
		}, nil)
	}
	e.Run(At(10))
	if count != 2 {
		t.Errorf("count = %d, want 2 after Stop", count)
	}
	if e.Now() != At(2) {
		t.Errorf("Now() = %v after Stop at t=2s, want the stopping instant, not the full window", e.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.ScheduleCall(At(5), func(Time, any) {}, nil)
	e.Run(At(5))
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.ScheduleCall(At(1), func(Time, any) {}, nil)
}

func TestStepObservesIntermediateState(t *testing.T) {
	e := NewEngine()
	var seen []Time
	e.ScheduleCall(At(1), func(now Time, _ any) { seen = append(seen, now) }, nil)
	e.ScheduleCall(At(2), func(now Time, _ any) { seen = append(seen, now) }, nil)
	if !e.Step() {
		t.Fatal("Step = false with pending events")
	}
	if len(seen) != 1 || seen[0] != At(1) {
		t.Fatalf("after one step seen = %v", seen)
	}
	if !e.Step() || e.Step() {
		t.Fatal("Step sequencing wrong")
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestRandForkIndependence(t *testing.T) {
	a := NewRand(7)
	f1 := a.Fork()
	// Consuming from the fork must not perturb the parent relative to a
	// parent that forked and discarded.
	b := NewRand(7)
	_ = b.Fork()
	for i := 0; i < 16; i++ {
		f1.Float64()
	}
	for i := 0; i < 16; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("fork consumption perturbed parent stream")
		}
	}
}

func TestRandUniformBounds(t *testing.T) {
	r := NewRand(1)
	if err := quick.Check(func(loRaw, span uint16) bool {
		lo := float64(loRaw)
		hi := lo + float64(span) + 1
		v := r.Uniform(lo, hi)
		return v >= lo && v < hi
	}, nil); err != nil {
		t.Error(err)
	}
}

// Property: events always execute in non-decreasing timestamp order no
// matter the insertion order.
func TestEngineOrderProperty(t *testing.T) {
	if err := quick.Check(func(offsets []uint16) bool {
		e := NewEngine()
		var times []Time
		for _, off := range offsets {
			at := Time(off)
			e.ScheduleCall(at, func(now Time, _ any) { times = append(times, now) }, nil)
		}
		e.Run(Never - 1)
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(offsets)
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEvery(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	e.Every(Second, func(now Time) { ticks = append(ticks, now) })
	e.Run(At(5))
	if len(ticks) != 5 {
		t.Fatalf("ticks = %d, want 5", len(ticks))
	}
	for i, tk := range ticks {
		if tk != At(float64(i+1)) {
			t.Errorf("tick %d at %v, want %vs", i, tk, i+1)
		}
	}
}

func TestEveryStop(t *testing.T) {
	e := NewEngine()
	count := 0
	var stop func()
	stop = e.Every(Second, func(now Time) {
		count++
		if count == 3 {
			stop()
		}
	})
	e.Run(At(10))
	if count != 3 {
		t.Errorf("count = %d, want 3 after stop", count)
	}
}

func TestEveryStopBeforeFirstTick(t *testing.T) {
	e := NewEngine()
	ran := false
	stop := e.Every(Second, func(Time) { ran = true })
	stop()
	e.Run(At(5))
	if ran {
		t.Error("stopped ticker still fired")
	}
}

func TestEveryInvalidPeriodPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive period did not panic")
		}
	}()
	e.Every(0, func(Time) {})
}
