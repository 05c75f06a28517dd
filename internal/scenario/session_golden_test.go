package scenario

import (
	"bytes"
	"testing"

	"github.com/autoe2e/autoe2e/internal/core"
	"github.com/autoe2e/autoe2e/internal/sched"
	"github.com/autoe2e/autoe2e/internal/simtime"
)

// observedRun is one run's complete observable output, copied out of the
// producing runner so session reuse cannot alias it.
type observedRun struct {
	csv       []byte
	chains    []sched.ChainEvent
	counters  []sched.TaskCounter
	rates     []float64
	precision float64
}

func observe(t *testing.T, res *core.RunResult, chains []sched.ChainEvent) observedRun {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Trace.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	rates := make([]float64, len(res.State.Rates()))
	for i, r := range res.State.Rates() {
		rates[i] = r.Float()
	}
	return observedRun{
		csv:       buf.Bytes(),
		chains:    chains,
		counters:  append([]sched.TaskCounter(nil), res.Counters...),
		rates:     rates,
		precision: res.State.TotalPrecision(),
	}
}

// runFresh executes the scenario through core.Run: a fresh Session's cold
// first run, which the substrate golden tests tie to the naive pipeline.
func runFresh(t *testing.T, cfg core.RunConfig) observedRun {
	t.Helper()
	var chains []sched.ChainEvent
	userOnChain := cfg.OnChain
	cfg.OnChain = func(ev sched.ChainEvent) {
		chains = append(chains, ev)
		if userOnChain != nil {
			userOnChain(ev)
		}
	}
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatalf("core.Run: %v", err)
	}
	return observe(t, res, chains)
}

// runOnSession executes the scenario on the reusable session.
func runOnSession(t *testing.T, s *core.Session, cfg core.RunConfig) observedRun {
	t.Helper()
	var chains []sched.ChainEvent
	userOnChain := cfg.OnChain
	cfg.OnChain = func(ev sched.ChainEvent) {
		chains = append(chains, ev)
		if userOnChain != nil {
			userOnChain(ev)
		}
	}
	res, err := s.Run(cfg)
	if err != nil {
		t.Fatalf("Session.Run: %v", err)
	}
	return observe(t, res, chains)
}

func requireRunsIdentical(t *testing.T, label string, want, got observedRun) {
	t.Helper()
	if len(want.chains) != len(got.chains) {
		t.Fatalf("%s: chain-event counts diverged: fresh %d, session %d", label, len(want.chains), len(got.chains))
	}
	for i := range want.chains {
		if want.chains[i] != got.chains[i] {
			t.Fatalf("%s: chain event %d diverged:\n  fresh   %+v\n  session %+v", label, i, want.chains[i], got.chains[i])
		}
	}
	for i := range want.counters {
		if want.counters[i] != got.counters[i] {
			t.Fatalf("%s: task %d counters diverged: fresh %+v, session %+v", label, i, want.counters[i], got.counters[i])
		}
	}
	for i := range want.rates {
		//lint:allow floateq identical closed loops must land on bit-identical rates
		if want.rates[i] != got.rates[i] {
			t.Fatalf("%s: final rate of task %d diverged: fresh %v, session %v", label, i, want.rates[i], got.rates[i])
		}
	}
	//lint:allow floateq identical closed loops must land on bit-identical precision
	if want.precision != got.precision {
		t.Fatalf("%s: final total precision diverged: fresh %v, session %v", label, want.precision, got.precision)
	}
	if !bytes.Equal(want.csv, got.csv) {
		t.Fatalf("%s: recorded time series diverged between fresh Run and Session (CSV bytes differ)", label)
	}
}

// TestSessionGoldenClosedLoops certifies the reusable batch runner: the
// same closed-loop scenarios the substrate golden tests pin must be
// byte-identical between core.Run (a fresh session) and a reused
// core.Session — on the session's cold first run AND on warm reuse runs,
// where every component is reset in place instead of rebuilt. mk builds a
// fresh config per call because execution-time models carry seeded RNG
// state.
func TestSessionGoldenClosedLoops(t *testing.T) {
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
			fresh := runFresh(t, tc.mk())
			s := core.NewSession()
			cold := runOnSession(t, s, tc.mk())
			requireRunsIdentical(t, "cold session", fresh, cold)
			for i := 0; i < 2; i++ {
				warm := runOnSession(t, s, tc.mk())
				requireRunsIdentical(t, "warm reuse", fresh, warm)
			}
		})
	}
}

// TestSessionGoldenAcrossShapes drives ONE session through scenarios with
// different task systems and middleware configurations back to back — each
// switch exercises the rebuild path, each repeat the warm path — and
// requires every run to match its fresh-Run golden regardless of what the
// session executed before it.
func TestSessionGoldenAcrossShapes(t *testing.T) {
	mks := []func() core.RunConfig{
		func() core.RunConfig { return Motivation(1.94, 1) },
		func() core.RunConfig { return Motivation(1.94, 1) }, // repeat: warm
		func() core.RunConfig { return TestbedRestore(1) },
		func() core.RunConfig { return SimAcceleration(core.ModeEUCON, 1) },
		func() core.RunConfig { return SimAcceleration(core.ModeAutoE2E, 1) },
		func() core.RunConfig { return TestbedRestore(1) },
	}
	s := core.NewSession()
	for i, mk := range mks {
		fresh := runFresh(t, mk())
		got := runOnSession(t, s, mk())
		requireRunsIdentical(t, "shape sequence", fresh, got)
		_ = i
	}
}

// TestSessionGoldenFuzzReuse hammers one session with randomized
// back-to-back runs — random scenario, random seed, random duration knob
// where the scenario offers one — comparing each against a fresh Run of an
// identically-built config. This is the adversarial sweep for cross-run
// state leakage: any buffer not reset, any counter not rewound, any stale
// event surviving in the engine shows up as a byte diff.
func TestSessionGoldenFuzzReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz reuse sweep is slow")
	}
	rng := simtime.NewRand(7)
	s := core.NewSession()
	const rounds = 12
	for round := 0; round < rounds; round++ {
		seed := int64(rng.Intn(1000)) + 1
		var mk func() core.RunConfig
		switch rng.Intn(4) {
		case 0:
			factor := 1.0 + rng.Float64()
			mk = func() core.RunConfig { return Motivation(factor, seed) }
		case 1:
			period := 10 + rng.Float64()*20
			mk = func() core.RunConfig { return SaturationSweep(period, seed) }
		case 2:
			mk = func() core.RunConfig { return TestbedRestore(seed) }
		default:
			mode := core.ModeEUCON
			if rng.Intn(2) == 1 {
				mode = core.ModeAutoE2E
			}
			mk = func() core.RunConfig { return SimAcceleration(mode, seed) }
		}
		fresh := runFresh(t, mk())
		got := runOnSession(t, s, mk())
		requireRunsIdentical(t, "fuzz round", fresh, got)
	}
}
