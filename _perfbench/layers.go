package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"github.com/autoe2e/autoe2e/internal/core"
	"github.com/autoe2e/autoe2e/internal/eucon"
	"github.com/autoe2e/autoe2e/internal/exectime"
	"github.com/autoe2e/autoe2e/internal/precision"
	"github.com/autoe2e/autoe2e/internal/scenario"
	"github.com/autoe2e/autoe2e/internal/sched"
	"github.com/autoe2e/autoe2e/internal/simtime"
	"github.com/autoe2e/autoe2e/internal/taskmodel"
	"github.com/autoe2e/autoe2e/internal/trace"
	"github.com/autoe2e/autoe2e/internal/trace/colfmt"
	"github.com/autoe2e/autoe2e/internal/units"
)

// countingExec wraps the execution-time model handed to a run and counts
// the jobs the scheduler releases (one Demand call per subtask job). It
// keeps the arguments of every 64th call, up to maxDemandSamples, so the
// call can be timed afterwards in a loop: a clock read per call would cost
// more than the call.
type countingExec struct {
	inner   exectime.Model
	calls   int64
	sys     *taskmodel.System
	sampled []demandArgs
}

type demandArgs struct {
	ref   taskmodel.SubtaskRef
	now   simtime.Time
	ratio units.Ratio
}

const maxDemandSamples = 512

func (c *countingExec) Demand(sys *taskmodel.System, ref taskmodel.SubtaskRef, now simtime.Time, ratio units.Ratio) simtime.Duration {
	c.calls++
	if c.calls&63 == 0 && len(c.sampled) < maxDemandSamples {
		c.sys = sys
		c.sampled = append(c.sampled, demandArgs{ref, now, ratio})
	}
	return c.inner.Demand(sys, ref, now, ratio)
}

// Rands forwards the wrapped model's random streams, so snapshot and fork
// still find and rewind them through the wrapper.
func (c *countingExec) Rands() []*simtime.Rand { return exectime.RandsOf(c.inner) }

// tick is one inner control period as the OnInnerTick hook saw it: the
// utilization samples and the operating point after both controllers acted.
type tick struct {
	utils []units.Util
	post  *taskmodel.State
}

// runProbe observes one run from outside, through the RunConfig hooks.
// Untraced runs only stamp the start; traced runs also count work.
type runProbe struct {
	start   time.Time
	traced  bool
	capture bool // keep every inner tick for controller replay
	eng     *simtime.Engine
	exec    *countingExec
	chains  int64
	ticks   int64
	pendMax int
	init    *taskmodel.State
	tickLog []tick
}

// instrument installs the probe's hooks into cfg.
func (p *runProbe) instrument(cfg *core.RunConfig) {
	cfg.Attach = p.attach
	if !p.traced {
		return
	}
	p.exec = &countingExec{inner: cfg.Exec}
	cfg.Exec = p.exec
	cfg.OnChain = p.onChain
	cfg.OnInnerTick = p.onTick
}

func (p *runProbe) attach(eng *simtime.Engine, st *taskmodel.State) {
	p.start = time.Now()
	p.eng = eng
	if p.capture {
		p.init = st.Clone()
	}
}

func (p *runProbe) samplePending() {
	if p.eng != nil {
		p.pendMax = max(p.pendMax, p.eng.Pending())
	}
}

func (p *runProbe) onChain(sched.ChainEvent) {
	p.chains++
	p.samplePending()
}

func (p *runProbe) onTick(_ simtime.Time, utils []units.Util, st *taskmodel.State) {
	p.ticks++
	p.samplePending()
	if p.capture {
		p.tickLog = append(p.tickLog, tick{utils: slices.Clone(utils), post: st.Clone()})
	}
}

// layerStats accumulates per-layer counts over the traced runs.
type layerStats struct {
	runs          int
	jobs          int64
	chains        int64
	pendMax       int
	demand        *countingExec // the first traced run's sampled calls
	samples       int64
	bytes         int64
	restoreRounds int64
	shedPeriods   int64
	encodeUs      sample
	euconUs       sample
	precisionUs   sample
	euconSteps    int64
	precSteps     int64
	replayedRuns  int
}

// addRun folds one traced run's probe and result into the totals, timing
// a colfmt encode of its trace.
func (ls *layerStats) addRun(p *runProbe, res *core.RunResult, mw core.Config, buf *[]byte, tr *tracer, parent, unit int64) {
	ls.runs++
	if mw.Mode != core.ModeOpen {
		ls.euconSteps += p.ticks
	}
	if mw.Mode == core.ModeAutoE2E {
		ls.precSteps += p.ticks / int64(outerEvery(mw))
	}
	if p.exec != nil {
		ls.jobs += p.exec.calls
		if ls.demand == nil && len(p.exec.sampled) > 0 {
			ls.demand = p.exec
		}
	}
	ls.chains += p.chains
	ls.pendMax = max(ls.pendMax, p.pendMax)
	res.Trace.EachSeries(func(s *trace.Series) { ls.samples += int64(s.Len()) })
	t := time.Now()
	*buf = colfmt.AppendRun((*buf)[:0], res.Trace)
	end := time.Now()
	tr.record("colfmt.AppendRun", parent, unit, t, end)
	ls.encodeUs.add(us(end.Sub(t)))
	ls.bytes += int64(len(*buf))
	if s := res.Trace.Series("outer.restore_round"); s != nil {
		ls.restoreRounds += int64(s.Len())
	}
	ls.shedPeriods += int64(shedPeriods(res))
}

// shedPeriods counts the outer periods in which any ECU shed precision.
func shedPeriods(res *core.RunResult) int {
	at := map[float64]bool{}
	sys := res.State.System()
	for j := 0; j < sys.NumECUs; j++ {
		s := res.Trace.Series(fmt.Sprintf("outer.reclaimed.ecu%d", j))
		if s == nil {
			continue
		}
		for _, t := range s.T {
			at[t] = true
		}
	}
	return len(at)
}

// replay re-runs a captured run's control periods through controllers built
// with the public eucon.New and precision.New, timing each Step. Before
// period k the replay state is reset to the operating point the run had
// after period k-1, so every step sees the input the in-run controller saw,
// up to scenario events between periods.
func (ls *layerStats) replay(p *runProbe, mw core.Config, tr *tracer, unit int64) error {
	if p.init == nil || len(p.tickLog) == 0 || mw.Mode == core.ModeOpen {
		return nil
	}
	state := p.init.Clone()
	inner, err := eucon.New(state, mw.Eucon)
	if err != nil {
		return err
	}
	var outer *precision.Controller
	if mw.Mode == core.ModeAutoE2E {
		if outer, err = precision.New(state, mw.Precision); err != nil {
			return err
		}
	}
	every := outerEvery(mw)
	prev := p.init
	for k, tk := range p.tickLog {
		prev.CloneInto(state)
		t := time.Now()
		if _, err := inner.Step(tk.utils); err != nil {
			return err
		}
		end := time.Now()
		tr.record("eucon.Step", 0, unit, t, end)
		ls.euconUs.add(us(end.Sub(t)))
		if outer != nil {
			outer.ObserveInner(tk.utils)
			if (k+1)%every == 0 {
				t := time.Now()
				if _, err := outer.Step(tk.utils); err != nil {
					return err
				}
				end := time.Now()
				tr.record("precision.Step", 0, unit, t, end)
				ls.precisionUs.add(us(end.Sub(t)))
			}
		}
		prev = tk.post
	}
	ls.replayedRuns++
	return nil
}

// emit reports the per-layer metrics the traced runs measured. runMs is
// the untraced per-run host time the shares are taken against.
func (ls *layerStats) emit(rep *report, runMs float64) {
	per := func(v int64) float64 {
		if ls.runs == 0 {
			return 0
		}
		return float64(v) / float64(ls.runs)
	}
	share := func(steps float64, stepUs sample) float64 {
		if runMs <= 0 {
			return 0
		}
		return steps * stepUs.mean() / (runMs * 1000)
	}
	euconSteps := per(ls.euconSteps)
	precSteps := per(ls.precSteps)
	rep.set("eucon.step_us.p50", "us", ls.euconUs.p50())
	rep.set("eucon.step_us.p99", "us", ls.euconUs.p99())
	rep.set("eucon.steps_per_run", "count", euconSteps)
	rep.set("eucon.share", "fraction", share(euconSteps, ls.euconUs))
	rep.set("precision.step_us.p50", "us", ls.precisionUs.p50())
	rep.set("precision.steps_per_run", "count", precSteps)
	rep.set("precision.restore_rounds_per_run", "count", per(ls.restoreRounds))
	rep.set("precision.shed_periods_per_run", "count", per(ls.shedPeriods))
	rep.set("precision.share", "fraction", share(precSteps, ls.precisionUs))
	jobs := per(ls.jobs)
	nsPerJob := 0.0
	if jobs > 0 {
		nsPerJob = runMs * 1e6 / jobs
	}
	rep.set("sim.ns_per_job", "ns", nsPerJob)
	rep.set("sched.jobs_per_run", "count", jobs)
	rep.set("sched.chains_per_run", "count", per(ls.chains))
	rep.set("simtime.pending_max", "count", float64(ls.pendMax))
	rep.set("exectime.demand_ns", "ns", ls.demandNs())
	rep.set("trace.samples_per_run", "count", per(ls.samples))
	rep.set("trace.encode_us", "us", ls.encodeUs.p50())
	rep.set("trace.bytes_per_run", "B", per(ls.bytes))
	rep.notef("layers: %d traced runs, %d replayed through the controllers", ls.runs, ls.replayedRuns)
}

// demandNs times the sampled Demand calls in a loop on the model stack every
// workload uses (noise over nominal) and returns the time per call.
func (ls *layerStats) demandNs() float64 {
	if ls.demand == nil {
		return 0
	}
	const reps = 200
	model := exectime.NewNoise(exectime.Nominal{}, scenario.ExecNoise, 1)
	var sink simtime.Duration
	t := time.Now()
	for r := 0; r < reps; r++ {
		for _, a := range ls.demand.sampled {
			sink += model.Demand(ls.demand.sys, a.ref, a.now, a.ratio)
		}
	}
	elapsed := time.Since(t)
	if sink == 0 {
		return 0 // every demand is positive; keeps the loop from being elided
	}
	return float64(elapsed.Nanoseconds()) / float64(reps*len(ls.demand.sampled))
}

// outerEvery is the middleware's outer period in inner periods, with the
// documented default of core.Config.
func outerEvery(mw core.Config) int {
	if mw.OuterEvery <= 0 {
		return 10
	}
	return mw.OuterEvery
}

// precisionMean is the time average of a run's precision.total series.
func precisionMean(res *core.RunResult) float64 {
	s := res.Trace.Series("precision.total")
	if s == nil || s.Len() == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, v := range s.V {
		t += v
	}
	return t / float64(s.Len())
}

// batchLayerMetrics are the per-run layer metrics of the closed-loop
// workloads; serve does not run them.
var batchLayerMetrics = []specMetric{
	{"eucon.step_us.p50", "us"}, {"eucon.step_us.p99", "us"}, {"eucon.steps_per_run", "count"}, {"eucon.share", "fraction"},
	{"precision.step_us.p50", "us"}, {"precision.steps_per_run", "count"}, {"precision.restore_rounds_per_run", "count"},
	{"precision.shed_periods_per_run", "count"}, {"precision.share", "fraction"},
	{"sim.ns_per_job", "ns"}, {"sched.jobs_per_run", "count"}, {"sched.chains_per_run", "count"},
	{"simtime.pending_max", "count"}, {"exectime.demand_ns", "ns"},
	{"trace.samples_per_run", "count"}, {"trace.encode_us", "us"}, {"trace.bytes_per_run", "B"},
	{"core.run_ms.p50", "ms"}, {"core.run_ms.p99", "ms"}, {"core.cold_run_ms", "ms"}, {"parallel.scaling", "ratio"},
}

// zeroUnexercised reports 0 for every listed metric the workload did not
// measure: a layer the workload does not exercise does no work in it.
func zeroUnexercised(rep *report, lists ...[]specMetric) {
	for _, list := range lists {
		for _, m := range list {
			if _, ok := rep.metrics[m.Name]; !ok {
				rep.set(m.Name, m.Unit, 0)
			}
		}
	}
}
