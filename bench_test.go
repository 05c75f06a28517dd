// Benchmarks regenerating every figure of the paper's evaluation section.
// Each benchmark runs the corresponding experiment end to end and reports
// the figure's headline quantities via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// reproduces the same rows the paper plots (see EXPERIMENTS.md for the
// paper-vs-measured record). Ablation benchmarks at the bottom quantify the
// design choices DESIGN.md calls out.
package autoe2e_test

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/autoe2e/autoe2e/internal/analysis"
	"github.com/autoe2e/autoe2e/internal/baseline"
	"github.com/autoe2e/autoe2e/internal/core"
	"github.com/autoe2e/autoe2e/internal/eucon"
	"github.com/autoe2e/autoe2e/internal/exectime"
	"github.com/autoe2e/autoe2e/internal/linalg"
	"github.com/autoe2e/autoe2e/internal/lint"
	"github.com/autoe2e/autoe2e/internal/parallel"
	"github.com/autoe2e/autoe2e/internal/precision"
	"github.com/autoe2e/autoe2e/internal/scenario"
	"github.com/autoe2e/autoe2e/internal/sched"
	"github.com/autoe2e/autoe2e/internal/serve"
	"github.com/autoe2e/autoe2e/internal/simtime"
	"github.com/autoe2e/autoe2e/internal/stats"
	"github.com/autoe2e/autoe2e/internal/taskmodel"
	"github.com/autoe2e/autoe2e/internal/trace"
	"github.com/autoe2e/autoe2e/internal/trace/colfmt"
	"github.com/autoe2e/autoe2e/internal/units"
	"github.com/autoe2e/autoe2e/internal/vehicle/cosim"
	"github.com/autoe2e/autoe2e/internal/workload"
)

// meanWindow averages a series over [from, to) seconds without copying the
// samples out.
func meanWindow(s *trace.Series, from, to float64) float64 {
	lo, hi := s.WindowBounds(from, to)
	return stats.Mean(s.V[lo:hi])
}

// mustRun executes a scenario or fails the benchmark.
func mustRun(b *testing.B, cfg core.RunConfig) *core.RunResult {
	b.Helper()
	res, err := core.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFig3MissRatio regenerates Figure 3(a) at the paper's icy-road
// point: the steering MPC grows from 12.1 ms to 23.5 ms (×1.94) under a
// static OPEN assignment.
func BenchmarkFig3MissRatio(b *testing.B) {
	b.ReportAllocs()
	var miss float64
	for i := 0; i < b.N; i++ {
		res := mustRun(b, scenario.Motivation(1.94, 1))
		miss = res.MissRatio(workload.SimPathTracking)
	}
	b.ReportMetric(miss, "t8_miss_ratio")
}

// BenchmarkFig4aSaturation regenerates the tight-period end of Figure 4(a):
// the path-tracking cycle forced to 20 ms under rate-only EUCON.
func BenchmarkFig4aSaturation(b *testing.B) {
	b.ReportAllocs()
	var loose, tight float64
	for i := 0; i < b.N; i++ {
		loose = mustRun(b, scenario.SaturationSweep(40, 1)).OverallMissRatio()
		tight = mustRun(b, scenario.SaturationSweep(20, 1)).OverallMissRatio()
	}
	b.ReportMetric(loose, "miss_at_40ms")
	b.ReportMetric(tight, "miss_at_20ms")
}

// BenchmarkFig4bTradeoff regenerates three points of the Figure 4(b)
// U-curve: precision-starved, balanced, and unschedulable budgets.
func BenchmarkFig4bTradeoff(b *testing.B) {
	b.ReportAllocs()
	var short, mid, over float64
	for i := 0; i < b.N; i++ {
		p1, err := cosim.Tradeoff(3, 1)
		if err != nil {
			b.Fatal(err)
		}
		p2, err := cosim.Tradeoff(24, 1)
		if err != nil {
			b.Fatal(err)
		}
		p3, err := cosim.Tradeoff(30, 1)
		if err != nil {
			b.Fatal(err)
		}
		short, mid, over = p1.MaxAbsErr, p2.MaxAbsErr, p3.MaxAbsErr
	}
	b.ReportMetric(short, "err_m_starved")
	b.ReportMetric(mid, "err_m_balanced")
	b.ReportMetric(over, "err_m_missing")
}

// BenchmarkFig8Testbed regenerates Figure 8: the testbed acceleration for
// both arms, reporting late-phase miss ratios and AutoE2E's precision cost.
func BenchmarkFig8Testbed(b *testing.B) {
	b.ReportAllocs()
	var euconMiss, autoMiss, precisionDrop float64
	for i := 0; i < b.N; i++ {
		eu := mustRun(b, scenario.TestbedAcceleration(core.ModeEUCON, 1))
		au := mustRun(b, scenario.TestbedAcceleration(core.ModeAutoE2E, 1))
		euconMiss = eu.OverallMissRatio()
		autoMiss = au.OverallMissRatio()
		precisionDrop = 1 - au.State.TotalPrecision()/7.5
	}
	b.ReportMetric(euconMiss, "eucon_miss")
	b.ReportMetric(autoMiss, "autoe2e_miss")
	b.ReportMetric(precisionDrop*100, "precision_drop_%")
}

// BenchmarkFig9Restorer regenerates Figure 9: the deceleration restoration
// against Direct Increase and the oracle.
func BenchmarkFig9Restorer(b *testing.B) {
	b.ReportAllocs()
	var restored, direct float64
	opt := scenario.TestbedOptimalPrecision()
	for i := 0; i < b.N; i++ {
		restored = mustRun(b, scenario.TestbedRestore(1)).State.TotalPrecision()
		direct = mustRun(b, scenario.TestbedRestoreDirectIncrease(1, 0.1)).State.TotalPrecision()
	}
	b.ReportMetric(restored, "restorer_precision")
	b.ReportMetric(direct, "direct_precision")
	b.ReportMetric((1-restored/opt)*100, "gap_to_optimal_%")
}

// BenchmarkFig10LaneChange regenerates Figure 10(a): maximum lateral
// tracking error per arm on the scaled car's double lane change.
func BenchmarkFig10LaneChange(b *testing.B) {
	b.ReportAllocs()
	var open, euc, auto float64
	for i := 0; i < b.N; i++ {
		for _, arm := range []struct {
			mode core.Mode
			dst  *float64
		}{
			{core.ModeOpen, &open}, {core.ModeEUCON, &euc}, {core.ModeAutoE2E, &auto},
		} {
			res, err := cosim.LaneChange(cosim.LaneChangeConfig{Mode: arm.mode, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			*arm.dst = res.MaxAbsErr
		}
	}
	b.ReportMetric(open*100, "open_maxerr_cm")
	b.ReportMetric(euc*100, "eucon_maxerr_cm")
	b.ReportMetric(auto*100, "autoe2e_maxerr_cm")
}

// BenchmarkFig10Cruise regenerates Figure 10(b): cruise-control tracking
// error and miss-induced command spikes.
func BenchmarkFig10Cruise(b *testing.B) {
	b.ReportAllocs()
	var euconSpike, autoSpike, autoRMS float64
	for i := 0; i < b.N; i++ {
		eu, err := cosim.Cruise(cosim.CruiseConfig{Mode: core.ModeEUCON, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		au, err := cosim.Cruise(cosim.CruiseConfig{Mode: core.ModeAutoE2E, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		euconSpike, autoSpike, autoRMS = eu.MaxJerk, au.MaxJerk, au.RMSErr
	}
	b.ReportMetric(euconSpike, "eucon_spike")
	b.ReportMetric(autoSpike, "autoe2e_spike")
	b.ReportMetric(autoRMS, "autoe2e_rms_err")
}

// BenchmarkFig11Simulation regenerates Figure 11: the 6-ECU/11-task
// acceleration for both arms.
func BenchmarkFig11Simulation(b *testing.B) {
	b.ReportAllocs()
	var euconUtil, euconStabMiss, autoStabMiss float64
	stabName := fmt.Sprintf("missratio.t%d", int(workload.SimStability)+1)
	for i := 0; i < b.N; i++ {
		eu := mustRun(b, scenario.SimAcceleration(core.ModeEUCON, 1))
		au := mustRun(b, scenario.SimAcceleration(core.ModeAutoE2E, 1))
		euconUtil = meanWindow(eu.Trace.Series("util.ecu3"), 45, 60)
		euconStabMiss = meanWindow(eu.Trace.Series(stabName), 45, 60)
		autoStabMiss = meanWindow(au.Trace.Series(stabName), 45, 60)
	}
	b.ReportMetric(euconUtil, "eucon_ecu4_util")
	b.ReportMetric(euconStabMiss, "eucon_stab_miss")
	b.ReportMetric(autoStabMiss, "autoe2e_stab_miss")
}

// BenchmarkFig12SimRestorer regenerates Figure 12: restoration on the
// larger-scale workload.
func BenchmarkFig12SimRestorer(b *testing.B) {
	b.ReportAllocs()
	var restored, direct float64
	opt := scenario.SimOptimalPrecision()
	for i := 0; i < b.N; i++ {
		restored = mustRun(b, scenario.SimRestore(1)).State.TotalPrecision()
		direct = mustRun(b, scenario.SimRestoreDirectIncrease(1, 0.1)).State.TotalPrecision()
	}
	b.ReportMetric(restored, "restorer_precision")
	b.ReportMetric(direct, "direct_precision")
	b.ReportMetric((1-restored/opt)*100, "gap_to_optimal_%")
}

// BenchmarkHeadline regenerates the abstract's claim: average miss-ratio
// reduction versus EUCON across both acceleration experiments.
func BenchmarkHeadline(b *testing.B) {
	b.ReportAllocs()
	var reduction, cost float64
	for i := 0; i < b.N; i++ {
		var reds, costs []float64
		for _, exp := range []struct {
			cfg  func(core.Mode, int64) core.RunConfig
			full float64
		}{
			{scenario.TestbedAcceleration, 7.5},
			{scenario.SimAcceleration, 21},
		} {
			eu := mustRun(b, exp.cfg(core.ModeEUCON, 1))
			au := mustRun(b, exp.cfg(core.ModeAutoE2E, 1))
			if m := eu.OverallMissRatio(); m > 0 {
				reds = append(reds, (m-au.OverallMissRatio())/m)
			}
			costs = append(costs, 1-au.State.TotalPrecision()/exp.full)
		}
		reduction = stats.Mean(reds)
		cost = stats.Mean(costs)
	}
	b.ReportMetric(reduction*100, "miss_reduction_%")
	b.ReportMetric(cost*100, "precision_cost_%")
}

// BenchmarkControllerOverhead measures the per-invocation cost of the two
// control loops on the full Figure 2 workload — the paper reports < 10 ms
// total middleware overhead per control period.
func BenchmarkControllerOverhead(b *testing.B) {
	b.ReportAllocs()
	st := taskmodel.NewState(workload.Simulation())
	inner, err := eucon.New(st, eucon.Config{})
	if err != nil {
		b.Fatal(err)
	}
	outer, err := precision.New(st, precision.Config{})
	if err != nil {
		b.Fatal(err)
	}
	utils := st.EstimatedUtilizations()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inner.Step(utils); err != nil {
			b.Fatal(err)
		}
		outer.ObserveInner(utils)
		if _, err := outer.Step(utils); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerThroughput measures raw simulation speed: scheduled job
// events per wall second on the Figure 2 workload. Substrate construction
// is hoisted out of the timed loop — each iteration resets the engine,
// state, and scheduler in place and replays the 10-second workload, so
// ns/op prices the simulation itself and allocs/op its steady state
// (construction used to mask it at 134 allocs/op). One untimed warm
// replay precedes ResetTimer so first-replay growth — event pools, the
// arena, the counters slice — never bleeds into the timed window: the
// steady-state figures are exactly 0 allocs/op and 0 B/op, not an
// amortized near-zero.
func BenchmarkSchedulerThroughput(b *testing.B) {
	b.ReportAllocs()
	cfg := sched.Config{Exec: exectime.Nominal{}}
	eng := simtime.NewEngine()
	st := taskmodel.NewState(workload.Simulation())
	s := sched.New(eng, st, cfg)
	var counters []sched.TaskCounter
	var released uint64
	replay := func() {
		eng.Reset()
		st.Reset()
		s.Reset(cfg)
		s.Start()
		eng.Run(simtime.At(10))
		released = 0
		counters = s.CountersInto(counters)
		for _, c := range counters {
			released += c.Released
		}
	}
	replay()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay()
	}
	b.StopTimer()
	b.ReportMetric(float64(released), "chains_per_10s")
}

// BenchmarkSchedulerSteadyState isolates the warmed-up simulation
// substrate: setup and warm-up run outside the timer, and each iteration
// advances the Figure 2 workload by a 100ms window through recycled event
// slots, chains, and jobs. B/op and allocs/op are the pooling gate's
// steady-state figures; both should be zero.
func BenchmarkSchedulerSteadyState(b *testing.B) {
	b.ReportAllocs()
	eng := simtime.NewEngine()
	st := taskmodel.NewState(workload.Simulation())
	s := sched.New(eng, st, sched.Config{Exec: exectime.Nominal{}})
	s.Start()
	eng.Run(simtime.At(1)) // warm pools, arena, and ready heaps
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Run(eng.Now().Add(100 * simtime.Millisecond))
	}
	var released uint64
	for _, c := range s.Counters() {
		released += c.Released
	}
	b.ReportMetric(float64(released)/float64(b.N), "chains_per_op")
}

// BenchmarkBoxLSQ measures the constrained least-squares kernel at the
// size the inner MPC uses on the Figure 2 workload (2-step control horizon
// over 11 tasks), through the workspace path the MPC hot loop uses: the
// normal equations are formed into preallocated buffers and solved in
// place, so the steady state allocates nothing.
func BenchmarkBoxLSQ(b *testing.B) {
	b.ReportAllocs()
	rng := simtime.NewRand(1)
	rows, cols := 24+22, 22
	a := linalg.NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			a.Set(i, j, rng.Float64())
		}
	}
	rhs := make([]float64, rows)
	lo := make([]float64, cols)
	hi := make([]float64, cols)
	for i := range rhs {
		rhs[i] = rng.Float64()
	}
	for j := range lo {
		lo[j] = -1
		hi[j] = 1
	}
	ata := linalg.NewMatrix(cols, cols)
	atb := make([]float64, cols)
	ws := linalg.NewBoxLSQWorkspace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulATAInto(ata)
		a.MulTVecInto(atb, rhs)
		if _, err := ws.SolveNormal(ata, atb, lo, hi, nil, linalg.DefaultBoxLSQOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations: the design choices DESIGN.md calls out ---

// BenchmarkAblationKnapsackOrder compares the paper's profit/cost-ordered
// knapsack against a naive proportional reduction for the same reclaimed
// utilization: the metric is the weighted precision kept.
func BenchmarkAblationKnapsackOrder(b *testing.B) {
	b.ReportAllocs()
	sys := workload.Simulation()
	// States and the knapsack workspace are reset in place each iteration,
	// so the measured loop is the selection algorithms alone.
	st := taskmodel.NewState(sys)
	st2 := taskmodel.NewState(sys)
	var ws precision.Workspace
	var greedy, proportional float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Greedy (the paper's Equation 8 solution).
		st.Reset()
		for ti := range sys.Tasks {
			st.SetRate(taskmodel.TaskID(ti), sys.Tasks[ti].RateMax)
		}
		const reclaim = 0.3
		got := ws.ReduceRatios(st, workload.SimECU4, reclaim)
		greedy = st.TotalPrecision()

		// Naive: shrink every adjustable ratio on the ECU by the same
		// factor until the same utilization is reclaimed.
		st2.Reset()
		for ti := range sys.Tasks {
			st2.SetRate(taskmodel.TaskID(ti), sys.Tasks[ti].RateMax)
		}
		reclaimProportional(st2, workload.SimECU4, got.Float())
		proportional = st2.TotalPrecision()
	}
	b.ReportMetric(greedy, "greedy_precision")
	b.ReportMetric(proportional, "proportional_precision")
}

// reclaimProportional sheds `reclaim` estimated utilization from ECU j by
// scaling all adjustable ratios by a common factor (bisected).
func reclaimProportional(st *taskmodel.State, ecu int, reclaim float64) {
	sys := st.System()
	before := st.EstimatedUtilization(ecu)
	lo, hi := 0.0, 1.0
	for iter := 0; iter < 40; iter++ {
		mid := (lo + hi) / 2
		for _, ref := range sys.OnECU(ecu) {
			if sys.Subtask(ref).Adjustable() {
				st.SetRatio(ref, units.RawRatio(mid))
			}
		}
		if (before - st.EstimatedUtilization(ecu)).Float() > reclaim {
			lo = mid
		} else {
			hi = mid
		}
	}
}

// BenchmarkAblationRestorerStep compares Algorithm 1's bisection against
// fixed-step rate decreases: the metric is rounds needed to finish the
// restoration (the paper argues bisection needs fewer iterations for the
// same final precision).
func BenchmarkAblationRestorerStep(b *testing.B) {
	b.ReportAllocs()
	var bisectRounds float64
	for i := 0; i < b.N; i++ {
		res := mustRun(b, scenario.TestbedRestore(1))
		if s := res.Trace.Series("outer.restore_round"); s != nil {
			bisectRounds = float64(s.Len())
		}
	}
	b.ReportMetric(bisectRounds, "bisection_rounds")
}

// BenchmarkAblationMPCHorizon measures inner-loop convergence (periods to
// settle within 1% of the bound) across prediction horizons.
func BenchmarkAblationMPCHorizon(b *testing.B) {
	b.ReportAllocs()
	for _, p := range []int{1, 2, 4, 8} {
		p := p
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			var settled float64
			for i := 0; i < b.N; i++ {
				sys := workload.Testbed()
				st := taskmodel.NewState(sys)
				m := p / 2
				if m < 1 {
					m = 1
				}
				ctl, err := eucon.New(st, eucon.Config{PredictionHorizon: p, ControlHorizon: m})
				if err != nil {
					b.Fatal(err)
				}
				settled = math.NaN()
				for k := 1; k <= 100; k++ {
					if _, err := ctl.Step(st.EstimatedUtilizations()); err != nil {
						b.Fatal(err)
					}
					worst := 0.0
					for j, u := range st.EstimatedUtilizations() {
						if d := math.Abs((u - sys.UtilBound[j]).Float()); d > worst {
							worst = d
						}
					}
					if worst < 0.01 {
						settled = float64(k)
						break
					}
				}
			}
			b.ReportMetric(settled, "periods_to_settle")
		})
	}
}

// BenchmarkAblationOuterMargin sweeps the outer loop's reclaim margin: a
// larger margin sheds more precision but avoids re-saturation (counted as
// repeated reclaim events).
func BenchmarkAblationOuterMargin(b *testing.B) {
	b.ReportAllocs()
	for _, margin := range []float64{0.01, 0.03, 0.08} {
		margin := margin
		b.Run(fmt.Sprintf("margin=%v", margin), func(b *testing.B) {
			b.ReportAllocs()
			var precisionKept, reclaimEvents float64
			for i := 0; i < b.N; i++ {
				cfg := scenario.TestbedAcceleration(core.ModeAutoE2E, 1)
				cfg.Middleware.Precision.ReclaimMargin = units.RawUtil(margin)
				res := mustRun(b, cfg)
				precisionKept = res.State.TotalPrecision()
				reclaimEvents = 0
				for j := 0; j < 3; j++ {
					if s := res.Trace.Series(fmt.Sprintf("outer.reclaimed.ecu%d", j)); s != nil {
						reclaimEvents += float64(s.Len())
					}
				}
			}
			b.ReportMetric(precisionKept, "final_precision")
			b.ReportMetric(reclaimEvents, "reclaim_events")
		})
	}
}

// BenchmarkAblationBaselineOptimal prices the oracle itself (Equation 5
// with perfect knowledge): how fast is the exact fractional knapsack.
func BenchmarkAblationBaselineOptimal(b *testing.B) {
	b.ReportAllocs()
	sys := workload.Simulation()
	st := taskmodel.NewState(sys)
	trueExec := func(ref taskmodel.SubtaskRef) float64 {
		return sys.Subtask(ref).NominalExec.Seconds()
	}
	var opt float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt = baseline.OptimalPrecision(st, trueExec)
	}
	b.ReportMetric(opt, "optimal_precision")
}

// BenchmarkAblationSyncPolicy compares the release-guard protocol against
// greedy chain synchronization on the noisy testbed acceleration: greedy
// releases bursts that inflate downstream interference.
func BenchmarkAblationSyncPolicy(b *testing.B) {
	b.ReportAllocs()
	for _, pol := range []struct {
		name string
		sync sched.SyncPolicy
	}{
		{"release-guard", sched.SyncReleaseGuard},
		{"greedy", sched.SyncGreedy},
	} {
		pol := pol
		b.Run(pol.name, func(b *testing.B) {
			b.ReportAllocs()
			var miss float64
			for i := 0; i < b.N; i++ {
				eng := simtime.NewEngine()
				st := taskmodel.NewState(workload.Testbed())
				// High-rate regime with heavy noise: burstiness matters.
				for ti := range st.System().Tasks {
					st.SetRateFloor(taskmodel.TaskID(ti), st.System().Tasks[ti].RateMax.Scale(0.8))
				}
				s := sched.New(eng, st, sched.Config{
					Exec: exectime.NewNoise(exectime.Nominal{}, 0.4, 1),
					Sync: pol.sync,
				})
				s.Start()
				eng.Run(simtime.At(60))
				var missed, resolved uint64
				for _, c := range s.Counters() {
					missed += c.Missed
					resolved += c.Missed + c.Completed
				}
				miss = 0
				if resolved > 0 {
					miss = float64(missed) / float64(resolved)
				}
			}
			b.ReportMetric(miss, "miss_ratio")
		})
	}
}

// BenchmarkAblationGainSweep runs the full testbed acceleration with the
// plant's execution times scaled by g on every ECU, validating the
// stability analysis of Section IV.C.2 end to end: AutoE2E holds misses low
// throughout the analytic range.
func BenchmarkAblationGainSweep(b *testing.B) {
	b.ReportAllocs()
	for _, g := range []float64{0.8, 1.0, 1.3, 1.6} {
		g := g
		b.Run(fmt.Sprintf("g=%v", g), func(b *testing.B) {
			b.ReportAllocs()
			var miss float64
			for i := 0; i < b.N; i++ {
				cfg := scenario.TestbedAcceleration(core.ModeAutoE2E, 1)
				cfg.Exec = exectime.Gain{
					Inner:  cfg.Exec,
					PerECU: map[int]float64{0: g, 1: g, 2: g},
				}
				miss = mustRun(b, cfg).OverallMissRatio()
			}
			b.ReportMetric(miss, "miss_ratio")
			b.ReportMetric(g, "gain")
		})
	}
}

// BenchmarkOfflineAnalysis prices the offline schedulability analysis on
// the Figure 2 workload and reports its WCET-inflation headroom — the
// quantity the paper's Section I argument revolves around.
func BenchmarkOfflineAnalysis(b *testing.B) {
	b.ReportAllocs()
	st := taskmodel.NewState(workload.Simulation())
	var margin float64
	for i := 0; i < b.N; i++ {
		rep, err := analysis.Analyze(st, analysis.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Schedulable {
			b.Fatal("Figure 2 workload at floors must be schedulable")
		}
		m, err := analysis.MaxWCETMargin(st, 64, 0.01)
		if err != nil {
			b.Fatal(err)
		}
		margin = m
	}
	b.ReportMetric(margin, "max_wcet_margin")
}

// BenchmarkAblationDecentralizedInner swaps the centralized MPC for the
// DEUCON-inspired per-task local controllers on the full Figure 8
// experiment: same saturation handling, no global solve.
func BenchmarkAblationDecentralizedInner(b *testing.B) {
	b.ReportAllocs()
	for _, arm := range []struct {
		name          string
		decentralized bool
	}{
		{"centralized", false},
		{"decentralized", true},
	} {
		arm := arm
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			var miss, precision float64
			for i := 0; i < b.N; i++ {
				cfg := scenario.TestbedAcceleration(core.ModeAutoE2E, 1)
				cfg.Middleware.DecentralizedInner = arm.decentralized
				res := mustRun(b, cfg)
				miss = res.OverallMissRatio()
				precision = res.State.TotalPrecision()
			}
			b.ReportMetric(miss, "miss_ratio")
			b.ReportMetric(precision, "final_precision")
		})
	}
}

// BenchmarkScalability runs the synthetic saturation scenario at growing
// system sizes with the decentralized inner loop, reporting the worst
// settled utilization excess over the bounds and the late-phase miss ratio.
// At these scales the centralized MPC's coupled compromises leave residual
// over-bound offsets — the scaling argument behind DEUCON [12].
func BenchmarkScalability(b *testing.B) {
	b.ReportAllocs()
	shapes := []struct{ ecus, tasks int }{
		{8, 32}, {16, 64}, {32, 128},
	}
	for _, shape := range shapes {
		shape := shape
		b.Run(fmt.Sprintf("E%dT%d", shape.ecus, shape.tasks), func(b *testing.B) {
			b.ReportAllocs()
			var worstExcess, lateMiss float64
			for i := 0; i < b.N; i++ {
				cfg := scenario.SyntheticScale(core.ModeAutoE2E, 11, shape.ecus, shape.tasks)
				cfg.Middleware.DecentralizedInner = true
				res := mustRun(b, cfg)
				sys := res.State.System()
				worstExcess = 0
				for j := 0; j < sys.NumECUs; j++ {
					u := meanWindow(res.Trace.Series(fmt.Sprintf("util.ecu%d", j)), 45, 60)
					if v := u - sys.UtilBound[j].Float(); v > worstExcess {
						worstExcess = v
					}
				}
				lateMiss = meanWindow(res.Trace.Series("missratio.overall"), 45, 60)
			}
			b.ReportMetric(worstExcess, "worst_excess")
			b.ReportMetric(lateMiss, "late_miss")
		})
	}
}

// fleetConfig builds the i-th member of a homogeneous testbed fleet: same
// task system, per-vehicle execution-time noise seed.
func fleetConfig(sys *taskmodel.System, i int) core.RunConfig {
	return core.RunConfig{
		System:     sys,
		Exec:       exectime.NewNoise(exectime.Nominal{}, 0.05, int64(i%16)+1),
		Middleware: core.Config{Mode: core.ModeAutoE2E},
		Duration:   2 * simtime.Second,
	}
}

// BenchmarkFleetThroughput is the headline batch-execution benchmark: how
// many full 2-second testbed experiments per wall-clock second the runtime
// sustains. Fresh rebuilds everything per run (the retained reference
// path), Session reuses one warm session serially (the steady-state cost of
// one run with zero construction), and Stream is the production fleet
// runner — per-worker sessions over all cores. The runs_per_sec metric is
// the figure of merit; Stream vs Fresh is the batch-runtime speedup.
func BenchmarkFleetThroughput(b *testing.B) {
	sys := workload.Testbed()

	b.Run("Fresh", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.Run(fleetConfig(sys, i)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "runs_per_sec")
	})

	b.Run("Session", func(b *testing.B) {
		b.ReportAllocs()
		s := core.NewSession()
		if _, err := s.Run(fleetConfig(sys, 0)); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Run(fleetConfig(sys, i)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "runs_per_sec")
	})

	b.Run("Stream", func(b *testing.B) {
		b.ReportAllocs()
		// Warm the shared session pool outside the timer, then stream all
		// b.N runs through ONE RunStream call, so ns/op and allocs/op are
		// per run — directly comparable to Session — and measure the fleet
		// runner's steady state instead of its per-call spin-up.
		workers := parallel.Workers()
		warm := 0
		warmNext := func() (core.RunConfig, bool) {
			if warm >= 2*workers {
				return core.RunConfig{}, false
			}
			cfg := fleetConfig(sys, warm)
			warm++
			return cfg, true
		}
		core.RunStream(warmNext, workers, func(_ int, _ *core.RunResult, err error) {
			if err != nil {
				b.Error(err)
			}
		})
		if b.Failed() {
			b.FailNow()
		}
		var firstErr error
		n := 0
		next := func() (core.RunConfig, bool) {
			if n >= b.N {
				return core.RunConfig{}, false
			}
			cfg := fleetConfig(sys, n)
			n++
			return cfg, true
		}
		b.ResetTimer()
		core.RunStream(next, workers, func(_ int, _ *core.RunResult, err error) {
			// Emit runs on worker goroutines: record, Fatal after the drain.
			if err != nil && firstErr == nil {
				firstErr = err
			}
		})
		b.StopTimer()
		if firstErr != nil {
			b.Fatal(firstErr)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "runs_per_sec")
	})
}

// BenchmarkServeThroughput prices the serving layer end to end: each
// iteration is one request through the full admission + queue + warm
// session + colfmt serialization pipeline (serve.Execute — HTTP framing
// excluded, everything the serve runtime controls included). Closed-loop
// clients keep the queue fed as it is under live load, and the server's
// own registry supplies the latency percentiles the /v1/metrics endpoint
// would report. Sub-benchmarks pin the worker count: cores=1 is
// the honest single-core figure every machine records; the multi-core point
// only exists where the hardware does (the ≥2x scaling acceptance runs
// there), so a 1-core CI box records cores=1 rather than a fake scaled
// number.
func BenchmarkServeThroughput(b *testing.B) {
	var seedCounter atomic.Int64
	bench := func(workers int) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			srv := serve.NewServer(serve.Options{Workers: workers})
			defer srv.Close()
			oneReq := func(resp *serve.Response) bool {
				spec := serve.RunSpec{
					Workload:  serve.WorkloadSpec{Name: "testbed"},
					DurationS: 2,
					Noise:     serve.NoiseSpec{Spread: 0.05, Seed: seedCounter.Add(1)},
					Trace:     serve.TraceColfmt,
				}
				for {
					srv.Execute(&spec, resp)
					switch resp.Status {
					case 200:
						return true
					case 429:
						// Closed loop briefly overran the queue; the retry
						// re-enters admission once a worker takes a request.
						continue
					default:
						b.Errorf("status %d: %s", resp.Status, resp.Body)
						return false
					}
				}
			}
			// Warm every worker's session concurrently before the timer so
			// the benchmark prices the steady state, not shape rebuilds.
			var wg sync.WaitGroup
			for i := 0; i < 4*workers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var resp serve.Response
					oneReq(&resp)
				}()
			}
			wg.Wait()
			if b.Failed() {
				b.FailNow()
			}
			b.SetParallelism(4)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				var resp serve.Response
				for pb.Next() {
					if !oneReq(&resp) {
						return
					}
				}
			})
			b.StopTimer()
			m := srv.Metrics()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "runs_per_sec")
			b.ReportMetric(float64(m.Percentile(0.50))/1e6, "p50_ms")
			b.ReportMetric(float64(m.Percentile(0.95))/1e6, "p95_ms")
			b.ReportMetric(float64(m.Percentile(0.99))/1e6, "p99_ms")
		}
	}
	b.Run("cores=1", bench(1))
	if n := runtime.NumCPU(); n >= 2 {
		b.Run(fmt.Sprintf("cores=%d", n), bench(n))
	}
}

// BenchmarkForkFanout is the branching-campaign headline: the same N-branch
// icy-road campaign (testbed acceleration forked at 300 s into N divergent
// continuations) executed by replaying N full runs versus fork-from-snapshot
// via RunTree, both on one worker so the metric prices compute, not core
// count. fork_speedup is the acceptance figure: with the fork at 3/4 of the
// run, forking bounds the campaign cost at prefix + N·continuation, an
// asymptotic 4x over replay (measured ≥2x at fan-out 8 once fixed overheads
// are paid).
func BenchmarkForkFanout(b *testing.B) {
	mk := func() core.RunConfig { return scenario.TestbedAcceleration(core.ModeAutoE2E, 1) }
	forkAt := simtime.At(300)
	for _, fan := range []int{8, 64} {
		fan := fan
		b.Run(fmt.Sprintf("fanout=%d", fan), func(b *testing.B) {
			b.ReportAllocs()
			forks := make([]core.Fork, fan)
			for i := range forks {
				floor := units.Rate(60 + i%30) // distinct divergence per branch
				forks[i] = core.Fork{Mutate: func(st *taskmodel.State) {
					st.SetRateFloor(workload.TestbedSteerByWire, floor)
					st.SetRateFloor(workload.TestbedDriveByWire, floor)
				}}
			}
			// Replay baseline: the identical campaign as independent full
			// runs over the same (serial) worker budget, timed once.
			cfgs := make([]core.RunConfig, fan)
			for i := range cfgs {
				cfgs[i] = mk()
				cfgs[i].Events = append(cfgs[i].Events, core.Event{At: forkAt, Do: forks[i].Mutate})
			}
			t0 := time.Now()
			if _, err := core.RunAll(cfgs, 1); err != nil {
				b.Fatal(err)
			}
			replay := time.Since(t0)

			tc := core.TreeConfig{Base: mk, ForkAt: forkAt, Forks: forks, Workers: 1}
			var results []*core.RunResult
			var err error
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results, err = core.RunTreeInto(tc, results)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			forkSec := b.Elapsed().Seconds() / float64(b.N)
			b.ReportMetric(replay.Seconds()/forkSec, "fork_speedup")
		})
	}
}

// BenchmarkSnapshotRestore prices the fork primitives themselves: capturing
// a live mid-run session into a recycled checkpoint and rebinding a warm
// session to it. Both must be allocation-free at steady state (the alloc
// gate test pins zero); ns/op is what every branch of a campaign pays on
// top of its own continuation.
func BenchmarkSnapshotRestore(b *testing.B) {
	src := core.NewSession()
	if err := src.RunPartial(scenario.SimAcceleration(core.ModeAutoE2E, 1), simtime.At(30)); err != nil {
		b.Fatal(err)
	}
	cp, err := src.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	dst := core.NewSession()
	if err := dst.Restore(cp); err != nil {
		b.Fatal(err)
	}
	b.Run("Snapshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := src.SnapshotInto(cp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Restore", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := dst.Restore(cp); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTraceEncode prices archiving one retained run into a columnar
// campaign buffer (internal/trace/colfmt.AppendRun) — the steady-state
// per-run cost of keeping a 1M-run campaign. bytes_per_run is the
// campaign footprint of one full testbed-acceleration trace; csv_ratio is
// how much smaller that is than the CSV in-memory accumulation would
// retain (the ≥4x acceptance figure).
func BenchmarkTraceEncode(b *testing.B) {
	b.ReportAllocs()
	res := mustRun(b, scenario.TestbedAcceleration(core.ModeAutoE2E, 1))
	var csv bytes.Buffer
	if err := res.Trace.WriteCSV(&csv); err != nil {
		b.Fatal(err)
	}
	buf := colfmt.AppendRun(nil, res.Trace)
	bytesPerRun := float64(len(buf))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = colfmt.AppendRun(buf[:0], res.Trace)
	}
	b.ReportMetric(bytesPerRun, "bytes_per_run")
	b.ReportMetric(float64(csv.Len())/bytesPerRun, "csv_ratio")
}

// BenchmarkTraceDecode prices reading one run back out of a columnar
// campaign: parse its headers and decode every column into a recycled
// recorder, the path trace2csv and offline analysis take per run.
func BenchmarkTraceDecode(b *testing.B) {
	b.ReportAllocs()
	res := mustRun(b, scenario.TestbedAcceleration(core.ModeAutoE2E, 1))
	var file bytes.Buffer
	if err := colfmt.NewWriter(&file).WriteRun(res.Trace); err != nil {
		b.Fatal(err)
	}
	r, err := colfmt.NewReader(file.Bytes())
	if err != nil {
		b.Fatal(err)
	}
	samples := 0
	res.Trace.EachSeries(func(s *trace.Series) { samples += s.Len() })
	rec := trace.NewRecorder()
	var run *colfmt.Run
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err = r.RunInto(0, run)
		if err != nil {
			b.Fatal(err)
		}
		if err := run.DecodeInto(rec); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(samples), "samples_per_run")
}

// BenchmarkLintLoader times the dependency-free module loader every
// autoe2e-lint run starts with: discovering, parsing, and type-checking
// the whole module with module-internal imports served from the loader's
// own source-checked results (object identity is what the interprocedural
// effects/parsafe analyzers lean on). This is the fixed cost of the lint
// gate, tracked in BENCH_control.json so a loader regression surfaces in
// review before it slows every `make lint` and CI run.
func BenchmarkLintLoader(b *testing.B) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pkgs, err := lint.NewLoader().LoadModule(root)
		if err != nil {
			b.Fatal(err)
		}
		if len(pkgs) < 10 {
			b.Fatalf("loaded %d packages, expected the whole module", len(pkgs))
		}
	}
}
