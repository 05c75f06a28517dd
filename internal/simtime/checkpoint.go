package simtime

import "fmt"

// EventArg is the symbolic, session-independent encoding of a scheduled
// callback's argument. Pending events captured by EngineCheckpoint cannot
// store the argument pointer itself — it aliases the snapshotted session's
// pools — so the capture callback translates it to (Kind, Idx) and the
// restore callback translates it back to the corresponding object owned by
// the *target* session. Kind identifies the argument's type (and therefore,
// because every trampoline in this codebase pairs with exactly one argument
// type per kind, which trampoline owns the event); Idx locates the object
// inside the target session (a task index, a chain pool slot, an ECU id, a
// scenario-event index).
type EventArg struct {
	Kind uint8
	Idx  int32
}

// slotCheckpoint is one captured arena cell. Free slots contribute only
// their generation (EventIDs embedded in restored component state must keep
// verifying); queued slots additionally carry the full event: the CallFunc
// value is shared verbatim — trampolines are package-level functions with
// no captured state — while the argument travels symbolically.
type slotCheckpoint struct {
	at      Time
	seq     uint64
	gen     uint32
	heapIdx int32
	pre     bool
	call    CallFunc
	arg     EventArg
}

// EngineCheckpoint is a deep copy of an Engine's complete observable state:
// clock, sequence counter, stop flag, the slot arena (with per-slot
// generations), the index heap, and the free list. It is produced by
// CaptureFrom and consumed by RestoreTo; a checkpoint holds no pointers
// into the captured engine, so it may be shared read-only across the worker
// sessions of a branching campaign.
type EngineCheckpoint struct {
	now     Time
	nextSeq uint64
	stopped bool
	slots   []slotCheckpoint
	heap    []uint32
	free    []uint32
}

// Now reports the captured clock instant.
func (cp *EngineCheckpoint) Now() Time { return cp.now }

// Pending reports the number of captured queued events.
func (cp *EngineCheckpoint) Pending() int { return len(cp.heap) }

// CaptureFrom overwrites cp with a deep copy of e's state, recycling cp's
// backing arrays so repeated snapshots are allocation-free at steady state.
// encode translates each queued event's argument to its symbolic form; it
// should return an error for arguments it does not recognize (such as
// Every's tickers), which makes the snapshot fail loudly instead of
// silently capturing state that cannot be rebound to another session. On
// error cp's contents are unspecified; it remains valid as a
// CaptureFrom destination.
func (cp *EngineCheckpoint) CaptureFrom(e *Engine, encode func(arg any) (EventArg, error)) error {
	cp.now = e.now
	cp.nextSeq = e.nextSeq
	cp.stopped = e.stopped
	cp.slots = cp.slots[:0]
	for i := range e.slots {
		s := &e.slots[i]
		sc := slotCheckpoint{at: s.at, seq: s.seq, gen: s.gen, heapIdx: s.heapIdx, pre: s.pre}
		if s.heapIdx >= 0 {
			a, err := encode(s.arg)
			if err != nil {
				return fmt.Errorf("simtime: snapshot: pending event at %v (slot %d): %w", s.at, i, err)
			}
			sc.call, sc.arg = s.call, a
		}
		cp.slots = append(cp.slots, sc)
	}
	cp.heap = append(cp.heap[:0], e.heap...)
	cp.free = append(cp.free[:0], e.free...)
	return nil
}

// RestoreTo overwrites e's state with the checkpoint's, recycling e's
// arena. decode translates each queued event's symbolic argument back to
// the object owned by the session e belongs to; it must be the inverse of
// the encode used at capture time. The arena is sized to exactly the
// captured length so slot generations line up with the EventIDs embedded in
// the rest of the restored session state (scheduler deadline/pending/
// completion events keep verifying under Cancel).
func (cp *EngineCheckpoint) RestoreTo(e *Engine, decode func(arg EventArg) any) {
	if cap(e.slots) < len(cp.slots) {
		e.slots = make([]eventSlot, len(cp.slots))
	} else {
		e.slots = e.slots[:len(cp.slots)]
	}
	for i := range cp.slots {
		sc := &cp.slots[i]
		s := &e.slots[i]
		s.at, s.seq, s.gen, s.heapIdx, s.pre = sc.at, sc.seq, sc.gen, sc.heapIdx, sc.pre
		if sc.heapIdx >= 0 {
			s.call = sc.call
			s.arg = decode(sc.arg)
		} else {
			s.call, s.arg = nil, nil
		}
	}
	e.heap = append(e.heap[:0], cp.heap...)
	e.free = append(e.free[:0], cp.free...)
	e.now = cp.now
	e.nextSeq = cp.nextSeq
	e.stopped = cp.stopped
}
