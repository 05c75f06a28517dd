package core

import (
	"fmt"

	"github.com/autoe2e/autoe2e/internal/exectime"
	"github.com/autoe2e/autoe2e/internal/sched"
	"github.com/autoe2e/autoe2e/internal/simtime"
	"github.com/autoe2e/autoe2e/internal/taskmodel"
	"github.com/autoe2e/autoe2e/internal/trace"
)

// Session is a reusable experiment runner: one engine, scheduler, state and
// middleware built once and reset between runs, so steady-state batch
// execution (parameter sweeps, fleet evaluations, Monte Carlo seeds)
// allocates approximately nothing per run. The package-level Run is a fresh
// Session's first run, and a warm Session produces byte-identical traces,
// counters and final state to it — the golden and fuzz tests pin that
// equivalence.
//
// The shape of a session — the task system and the middleware configuration
// — is fixed by the first Run call; a later call with a different System
// pointer or Middleware config tears the plumbing down and rebuilds it
// (correct, but no longer allocation-free). Per-run knobs (Exec, LinkDelay,
// Duration, Events, hooks) may change freely between runs.
//
// Beyond whole runs, a session supports branching: RunPartial executes a
// run's prefix, Snapshot captures the complete live state as a
// caller-owned Checkpoint, Restore rebinds any session (same shape or not)
// to that state, and Resume continues to an absolute end time —
// byte-identical to a fresh run that applied the continuation's events from
// the start. RunTree packages the pattern into shared-prefix campaigns.
//
// A Session is not safe for concurrent use; RunStream shards work over one
// session per worker. The returned RunResult and its Trace are owned by the
// session and valid only until the next Run call — callers that retain
// results across runs must copy what they need first.
type Session struct {
	eng   *simtime.Engine
	rec   *trace.Recorder
	state *taskmodel.State
	sch   *sched.Scheduler
	mw    *Middleware

	// Shape keys: rebuilding triggers when either differs on the next run.
	sys   *taskmodel.System
	mwCfg Config // normalized (withDefaults)
	built bool

	eventArgs []sessionEvent
	// resumeArgs holds the scenario events injected by Resume calls. It is
	// separate from eventArgs (and append-only across consecutive Resumes)
	// because the engine holds pointers into both while events are
	// pending; only a fresh run or a Restore may rebuild them.
	resumeArgs []sessionEvent
	// rands are the live random streams registered by the current
	// RunPartial/Resume config; Snapshot captures their states.
	//lint:sticky live stream registry, rewritten by RunPartial/Resume and truncated by execute before any read
	rands []*simtime.Rand
	// randStates, when non-empty, are checkpoint states the next Resume
	// must rewind its streams to (set by Restore, consumed by Resume).
	//lint:sticky rewind buffer, set by Restore and consumed by the next Resume; execute truncates it
	randStates []simtime.RandState
	// encodeFn/decodeFn are the cached method values handed to the engine
	// checkpoint, bound once per rebuild so Snapshot/Restore allocate no
	// closures at steady state.
	encodeFn func(arg any) (simtime.EventArg, error)
	decodeFn func(arg simtime.EventArg) any

	res RunResult
}

// sessionEvent binds one scripted scenario action to the session state so
// the engine trampoline can dispatch it without a per-event closure. idx is
// the event's position in its owning buffer (eventArgs, or resumeArgs when
// resume is set), which is how snapshots encode pending event arguments
// symbolically.
type sessionEvent struct {
	st     *taskmodel.State
	do     func(st *taskmodel.State)
	idx    int32
	resume bool
}

// sessionEventCall is the engine trampoline for scripted scenario events.
//
//lint:certify noalloc,nopanic,deterministic scripted-event trampoline: dispatch only, the action is user code
func sessionEventCall(_ simtime.Time, arg any) {
	ev := arg.(*sessionEvent)
	ev.do(ev.st) //lint:hookpoint scenario actions are caller-supplied; the scripted-event contract bounds them, not this trampoline
}

// NewSession returns an empty session; the first Run builds the plumbing.
func NewSession() *Session { return &Session{} }

// validateRunConfig is the shared precondition check of Run and RunPartial.
func validateRunConfig(cfg RunConfig) error {
	if cfg.System == nil {
		return fmt.Errorf("core: RunConfig.System is required")
	}
	if cfg.Exec == nil {
		return fmt.Errorf("core: RunConfig.Exec is required")
	}
	if cfg.Duration <= 0 {
		return fmt.Errorf("core: RunConfig.Duration = %v, want > 0", cfg.Duration)
	}
	for _, ev := range cfg.Events {
		if ev.Do == nil {
			return fmt.Errorf("core: scenario event at %v has nil action", ev.At)
		}
	}
	return nil
}

// Run executes one experiment on the session's reusable plumbing: it
// validates the configuration, (re)builds engine + scheduler + middleware
// when the shape changed, schedules the scenario events, runs to
// cfg.Duration, and returns the session-owned result.
//
// Run itself only validates and routes; the warm steady-state path is
// runWarm, whose interprocedural noalloc/nopanic/deterministic contract the
// effects analyzer certifies from root to engine drain.
func (s *Session) Run(cfg RunConfig) (*RunResult, error) {
	if err := validateRunConfig(cfg); err != nil {
		return nil, err
	}
	mwCfg := cfg.Middleware.withDefaults()
	if err := mwCfg.validate(); err != nil {
		return nil, err
	}

	schedCfg := sched.Config{
		Exec:      cfg.Exec,
		LinkDelay: cfg.LinkDelay,
		OnChain:   cfg.OnChain,
	}
	if s.built && s.sys == cfg.System && s.mwCfg == mwCfg {
		return s.runWarm(cfg, schedCfg)
	}
	if err := s.rebuild(cfg, mwCfg, schedCfg); err != nil {
		return nil, err
	}
	return s.execute(cfg)
}

// RunPartial executes the prefix of an experiment: everything strictly
// before `until`, leaving the session live mid-run with every event at or
// after `until` still pending. The canonical continuation is Snapshot (to
// fork the state into divergent futures) and/or Resume (to keep running
// this session to the configured end). Unlike Run it registers the
// config's random streams (cfg.Rands plus what Exec carries) so a
// subsequent Snapshot captures their mid-run states.
func (s *Session) RunPartial(cfg RunConfig, until simtime.Time) error {
	if err := validateRunConfig(cfg); err != nil {
		return err
	}
	if until < 0 || until > simtime.Time(cfg.Duration) {
		return fmt.Errorf("core: RunPartial until %v outside [0, %v]", until, cfg.Duration)
	}
	mwCfg := cfg.Middleware.withDefaults()
	if err := mwCfg.validate(); err != nil {
		return err
	}
	schedCfg := sched.Config{
		Exec:      cfg.Exec,
		LinkDelay: cfg.LinkDelay,
		OnChain:   cfg.OnChain,
	}
	if s.built && s.sys == cfg.System && s.mwCfg == mwCfg {
		s.resetWarm(cfg, schedCfg)
	} else if err := s.rebuild(cfg, mwCfg, schedCfg); err != nil {
		return err
	}
	s.collectRands(cfg)
	// A fresh partial run starts from time zero; any rewind states left by
	// an earlier Restore belong to the session state being discarded.
	s.randStates = s.randStates[:0]
	s.schedule(cfg)
	s.eng.RunBefore(until)
	return s.mw.Err()
}

// Resume continues a live session — one left mid-run by RunPartial, or one
// rebound to a checkpoint by Restore — until the absolute instant
// cfg.Duration, and publishes the completed run's result. The config
// supplies the continuation's behavior: Exec/LinkDelay/OnChain/OnInnerTick
// replace the prefix's models from the current instant on, and Events are
// injected into the schedule (each must lie at or after the session
// clock). Setup and Attach are prefix-time concerns and are ignored;
// System, if set, must match the session's. After a Restore, the
// continuation's random streams are rewound to the checkpointed states, so
// the fork consumes the exact sample sequences the replayed run would.
//
// Byte-identity contract (pinned by the fork golden and fuzz tests): for a
// prefix run with events E forked at time t, Resume with events F yields
// the same CSV bytes, chain events, counters, and final state as a fresh
// run with events E ++ F where every F event fires at or after t.
func (s *Session) Resume(cfg RunConfig) (*RunResult, error) {
	if !s.built {
		return nil, fmt.Errorf("core: Resume on an empty session; RunPartial or Restore first")
	}
	if cfg.Exec == nil {
		return nil, fmt.Errorf("core: RunConfig.Exec is required")
	}
	if cfg.System != nil && cfg.System != s.sys {
		return nil, fmt.Errorf("core: Resume config System differs from the session's (leave it nil to continue the restored system)")
	}
	now := s.eng.Now()
	until := simtime.Time(cfg.Duration)
	if until < now {
		return nil, fmt.Errorf("core: Resume Duration %v is before the session clock %v", cfg.Duration, now)
	}
	for _, ev := range cfg.Events {
		if ev.Do == nil {
			return nil, fmt.Errorf("core: scenario event at %v has nil action", ev.At)
		}
		if ev.At < now {
			return nil, fmt.Errorf("core: resume event at %v is before the session clock %v", ev.At, now)
		}
	}
	s.sch.Reconfigure(sched.Config{
		Exec:      cfg.Exec,
		LinkDelay: cfg.LinkDelay,
		OnChain:   cfg.OnChain,
	})
	s.mw.onInner = cfg.OnInnerTick
	s.collectRands(cfg)
	if len(s.randStates) > 0 {
		if len(s.rands) != len(s.randStates) {
			return nil, fmt.Errorf("core: Resume config registers %d random streams, checkpoint captured %d; Base/Resume configs must carry the same model stack as the snapshotted run", len(s.rands), len(s.randStates))
		}
		for i, r := range s.rands {
			r.SetState(s.randStates[i])
		}
		s.randStates = s.randStates[:0]
	}
	// Injected events ride the pre-band so they order exactly where a
	// fresh run's config-time schedule would put them: after the restored
	// run's own configured events at the same instant (smaller sequence
	// numbers), before every runtime event (non-pre). The buffer is
	// append-only across Resumes — earlier injections may still be
	// pending, and the engine holds pointers by index into live entries.
	base := len(s.resumeArgs)
	for i, ev := range cfg.Events {
		s.resumeArgs = append(s.resumeArgs, sessionEvent{st: s.state, do: ev.Do, idx: int32(base + i), resume: true})
	}
	for i := range cfg.Events {
		s.eng.ScheduleCallPre(cfg.Events[i].At, sessionEventCall, &s.resumeArgs[base+i])
	}
	s.eng.Run(until)
	if err := s.mw.Err(); err != nil {
		return nil, err
	}
	s.res.Trace = s.rec
	s.res.State = s.state
	s.res.Counters = s.sch.CountersInto(s.res.Counters)
	return &s.res, nil
}

// collectRands gathers the run's registered random streams: the explicit
// RunConfig.Rands followed by whatever the execution-time model stack
// carries. The order is deterministic for a given config shape, which is
// what lets Resume rewind a fresh model stack to a snapshot taken from an
// equally-shaped one, stream for stream.
func (s *Session) collectRands(cfg RunConfig) {
	s.rands = append(s.rands[:0], cfg.Rands...)
	s.rands = append(s.rands, exectime.RandsOf(cfg.Exec)...)
}

// runWarm executes a run on already-built plumbing, resetting every
// component in place. The state must reach its run-start operating point
// before Middleware.Reset, because the outer controller re-snapshots the
// rate floors it restores toward, exactly as construction does.
//
//lint:certify noalloc,nopanic,deterministic warm steady-state run: in-place resets, scripted events, full engine drain
func (s *Session) runWarm(cfg RunConfig, schedCfg sched.Config) (*RunResult, error) {
	s.resetWarm(cfg, schedCfg)
	return s.execute(cfg)
}

// resetWarm returns every component to its run-start state in place.
func (s *Session) resetWarm(cfg RunConfig, schedCfg sched.Config) {
	s.eng.Reset()
	s.rec.Reset()
	s.state.Reset()
	if cfg.Setup != nil {
		cfg.Setup(s.state) //lint:hookpoint Setup is caller-supplied run preparation outside the certified substrate
	}
	s.sch.Reset(schedCfg)
	s.mw.Reset()
}

// rebuild constructs fresh components, committing to the session fields
// only once everything constructed, so a failed rebuild leaves the session
// consistently unbuilt rather than half-swapped. It is the one Session
// path that allocates by design.
func (s *Session) rebuild(cfg RunConfig, mwCfg Config, schedCfg sched.Config) error {
	s.built = false
	eng := simtime.NewEngine()
	rec := trace.NewRecorder()
	state := taskmodel.NewState(cfg.System)
	if cfg.Setup != nil {
		cfg.Setup(state)
	}
	scheduler := sched.New(eng, state, schedCfg)
	mw, err := NewMiddleware(eng, scheduler, mwCfg, rec)
	if err != nil {
		return err
	}
	s.eng, s.rec, s.state, s.sch, s.mw = eng, rec, state, scheduler, mw
	s.sys, s.mwCfg = cfg.System, mwCfg
	s.encodeFn = s.encodeEventArg
	s.decodeFn = s.decodeEventArg
	s.built = true
	return nil
}

// execute is the shared tail of the warm and cold paths: schedule the
// scripted scenario events, start the substrate, drain the engine, and
// publish the session-owned result.
//
//lint:certify noalloc,nopanic,deterministic run tail shared by warm and cold paths; the engine drain dominates steady-state cost
func (s *Session) execute(cfg RunConfig) (*RunResult, error) {
	// A full fresh run invalidates any snapshot-support state left by an
	// earlier RunPartial/Restore; truncation is allocation-free.
	s.rands = s.rands[:0]
	s.randStates = s.randStates[:0]
	s.schedule(cfg)
	s.eng.Run(simtime.Time(cfg.Duration))
	if err := s.mw.Err(); err != nil {
		return nil, err
	}

	s.res.Trace = s.rec
	s.res.State = s.state
	s.res.Counters = s.sch.CountersInto(s.res.Counters) //lint:allow hotpathalloc first-run sizing; warm runs reuse the buffer
	return &s.res, nil
}

// schedule installs a run's scripted events and starts the substrate. The
// scenario events ride the pre-band (see Engine.ScheduleCallPre): they are
// scheduled before the substrate starts, so their sequence numbers are
// globally minimal and the band changes nothing for a fresh run — it
// matters only so Resume-injected events can interleave correctly.
func (s *Session) schedule(cfg RunConfig) {
	s.mw.onInner = cfg.OnInnerTick
	// Scenario events ride the reusable argument buffer; pointers into it
	// are taken only after every append, so growth cannot invalidate them.
	s.eventArgs = s.eventArgs[:0]
	s.resumeArgs = s.resumeArgs[:0]
	for i, ev := range cfg.Events {
		s.eventArgs = append(s.eventArgs, sessionEvent{st: s.state, do: ev.Do, idx: int32(i)})
	}
	for i, ev := range cfg.Events {
		s.eng.ScheduleCallPre(ev.At, sessionEventCall, &s.eventArgs[i])
	}
	if cfg.Attach != nil {
		cfg.Attach(s.eng, s.state) //lint:hookpoint Attach is caller-supplied instrumentation outside the certified substrate
	}
	s.sch.Start()
	s.mw.Start()
}
