package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t. The runtime's timers wake a sleeping goroutine
// on a whole-millisecond tick on the reference host, which would add ~0.5 ms
// of generator lag to the median request; nanosleep wakes within ~0.1 ms.
// The sleeping sender holds an OS thread, and the runtime hands its
// processor to other goroutines meanwhile.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if syscall.Nanosleep(&ts, nil) == nil {
			return
		}
	}
}
