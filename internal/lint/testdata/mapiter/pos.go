//lintpath:github.com/autoe2e/autoe2e/internal/fixture

// Positive cases: order-dependent effects inside map iteration with no
// sort anywhere downstream.
package fixture

import "fmt"

func appendNoSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "append"
	}
	return keys
}

func printInRange(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want "fmt.Println"
	}
}

func sendInRange(m map[string]int, ch chan<- int) {
	for _, v := range m {
		ch <- v // want "channel send"
	}
}

// recorder stands in for the trace recorder / event queue.
type recorder struct{}

func (recorder) Add(name string, v float64) {}

func feedSink(m map[string]float64, rec recorder) {
	for name, v := range m {
		rec.Add(name, v) // want "order-sensitive sink"
	}
}

// engine stands in for the simtime event queue: events scheduled for the
// same instant fire in scheduling order, so map order would leak into the
// simulation.
type engine struct{}

func (engine) ScheduleCall(at int64, fn func(int64, any), arg any) uint64    { return 0 }
func (engine) ScheduleCallPre(at int64, fn func(int64, any), arg any) uint64 { return 0 }
func (engine) AfterCall(d int64, fn func(int64, any), arg any) uint64        { return 0 }

func fire(int64, any) {}

func scheduleInRange(m map[string]*int, eng engine) {
	for _, p := range m {
		eng.ScheduleCall(1, fire, p) // want "order-sensitive sink"
	}
	for _, p := range m {
		eng.ScheduleCallPre(1, fire, p) // want "order-sensitive sink"
	}
	for _, p := range m {
		eng.AfterCall(1, fire, p) // want "order-sensitive sink"
	}
}
