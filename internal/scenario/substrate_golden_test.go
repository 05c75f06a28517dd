package scenario

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/autoe2e/autoe2e/internal/core"
	"github.com/autoe2e/autoe2e/internal/sched"
	"github.com/autoe2e/autoe2e/internal/simtime"
	"github.com/autoe2e/autoe2e/internal/taskmodel"
)

// runReference is the naive pipeline the substrate golden compares
// core.Run against: a fresh engine, the retained naive scheduler
// (sched.Reference) and a fresh middleware, assembled here from exported
// API only, in the order a cold Session assembles the pooled substrate.
// OnInnerTick cannot be wired from outside package core, so a config that
// sets it is refused rather than silently run without it.
func runReference(cfg core.RunConfig) (*core.RunResult, error) {
	if cfg.OnInnerTick != nil {
		return nil, fmt.Errorf("reference substrate: OnInnerTick is not supported")
	}
	eng := simtime.NewEngine()
	state := taskmodel.NewState(cfg.System)
	if cfg.Setup != nil {
		cfg.Setup(state)
	}
	scheduler := sched.NewReference(eng, state, sched.Config{
		Exec:      cfg.Exec,
		LinkDelay: cfg.LinkDelay,
		OnChain:   cfg.OnChain,
	})
	mw, err := core.NewMiddleware(eng, scheduler, cfg.Middleware, nil)
	if err != nil {
		return nil, err
	}
	for _, ev := range cfg.Events {
		eng.ScheduleCall(ev.At, func(simtime.Time, any) { ev.Do(state) }, nil)
	}
	if cfg.Attach != nil {
		cfg.Attach(eng, state)
	}
	scheduler.Start()
	mw.Start()
	eng.Run(simtime.Time(cfg.Duration))
	if err := mw.Err(); err != nil {
		return nil, err
	}
	return &core.RunResult{Trace: mw.Recorder(), Counters: scheduler.Counters(), State: state}, nil
}

// runOnSubstrate executes one scenario on either the pooled substrate
// (core.Run) or the naive reference pipeline and returns every observable
// output: the full CSV dump of the recorded time series, the ordered
// chain-event log, the final counters, and the final operating point.
func runOnSubstrate(t *testing.T, cfg core.RunConfig, reference bool) (csv []byte, chains []sched.ChainEvent, res *core.RunResult) {
	t.Helper()
	userOnChain := cfg.OnChain
	cfg.OnChain = func(ev sched.ChainEvent) {
		chains = append(chains, ev)
		if userOnChain != nil {
			userOnChain(ev)
		}
	}
	run := core.Run
	if reference {
		run = runReference
	}
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("run (reference=%v): %v", reference, err)
	}
	var buf bytes.Buffer
	if err := res.Trace.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV (reference=%v): %v", reference, err)
	}
	return buf.Bytes(), chains, res
}

// requireSubstrateEquivalence runs the scenario produced by mk on both
// substrates and requires byte-identical traces. mk must build a fresh
// RunConfig per call because execution-time models carry seeded RNG state.
func requireSubstrateEquivalence(t *testing.T, mk func() core.RunConfig) {
	t.Helper()
	pooledCSV, pooledChains, pooledRes := runOnSubstrate(t, mk(), false)
	refCSV, refChains, refRes := runOnSubstrate(t, mk(), true)

	if len(pooledChains) != len(refChains) {
		t.Fatalf("chain-event counts diverged: pooled %d, reference %d", len(pooledChains), len(refChains))
	}
	for i := range pooledChains {
		if pooledChains[i] != refChains[i] {
			t.Fatalf("chain event %d diverged:\n  pooled    %+v\n  reference %+v", i, pooledChains[i], refChains[i])
		}
	}
	for i := range pooledRes.Counters {
		if pooledRes.Counters[i] != refRes.Counters[i] {
			t.Fatalf("task %d counters diverged: pooled %+v, reference %+v", i, pooledRes.Counters[i], refRes.Counters[i])
		}
	}
	for i, r := range pooledRes.State.Rates() {
		//lint:allow floateq identical closed loops must land on bit-identical rates
		if r != refRes.State.Rates()[i] {
			t.Fatalf("final rate of task %d diverged: pooled %v, reference %v", i, r, refRes.State.Rates()[i])
		}
	}
	//lint:allow floateq identical closed loops must land on bit-identical precision
	if p, q := pooledRes.State.TotalPrecision(), refRes.State.TotalPrecision(); p != q {
		t.Fatalf("final total precision diverged: pooled %v, reference %v", p, q)
	}
	if !bytes.Equal(pooledCSV, refCSV) {
		t.Fatal("recorded time series diverged between pooled and reference substrates (CSV bytes differ)")
	}
}

// TestSubstrateGoldenClosedLoops is the end-to-end certification of the
// pooled discrete-event substrate: full closed-loop experiments — the
// Figure 3 motivation run, a Figure 4 saturation point, the Figure 9
// testbed restore, and the Figure 11 simulated acceleration under both
// EUCON and AutoE2E — must be byte-identical between core.Run (a cold
// Session on the pooled scheduler) and the naive reference pipeline, down
// to every recorded sample, chain event, counter, and the final operating
// point. The session golden tests then tie warm Sessions to core.Run, so
// the chain naive ≡ cold ≡ warm is whole.
func TestSubstrateGoldenClosedLoops(t *testing.T) {
	cases := []struct {
		name string
		mk   func() core.RunConfig
	}{
		{"Motivation", func() core.RunConfig { return Motivation(1.94, 1) }},
		{"SaturationSweep", func() core.RunConfig { return SaturationSweep(20, 1) }},
		{"TestbedRestore", func() core.RunConfig { return TestbedRestore(1) }},
		{"SimAccelerationEUCON", func() core.RunConfig { return SimAcceleration(core.ModeEUCON, 1) }},
		{"SimAccelerationAutoE2E", func() core.RunConfig { return SimAcceleration(core.ModeAutoE2E, 1) }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			requireSubstrateEquivalence(t, tc.mk)
		})
	}
}
