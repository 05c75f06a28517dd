// Package autoe2e is a Go implementation of AutoE2E, the two-tier
// end-to-end real-time middleware for autonomous driving control published
// at ICDCS 2020 (Bai, Wang, Wang, Wang).
//
// AutoE2E keeps every end-to-end task of a distributed automotive system
// (many ECUs, task chains spanning them) inside its deadline despite
// runtime execution-time variation, while maximizing computation precision:
//
//   - an inner rate-based loop (the EUCON MIMO model-predictive controller)
//     drives every ECU's CPU utilization to its schedulable bound by
//     adjusting task invocation rates within [r_min, r_max], where r_min is
//     dictated by vehicle speed;
//   - an outer precision-based loop detects when the inner loop saturates
//     (rates pinned at their floors with utilization still above the
//     bound) and sheds execution time — computation precision — via a
//     reversed relaxed knapsack at minimum weighted loss;
//   - a computation precision restorer reacts to decelerations by bisecting
//     rates toward the new floors and buying the freed utilization back as
//     precision.
//
// The package bundles everything needed to reproduce the paper end to end:
// the task/ECU model, a deterministic event-driven preemptive-RMS scheduler
// simulation with release-guard chains, the controllers, the comparison
// baselines (OPEN, rate-only EUCON, Direct Increase, the Optimal oracle),
// the paper's two workloads, and a vehicle co-simulation (bicycle model,
// LTV-MPC path tracking, adaptive cruise control).
//
// # Quick start
//
//	sys := autoe2e.TestbedWorkload()
//	res, err := autoe2e.Run(autoe2e.RunConfig{
//		System:     sys,
//		Exec:       autoe2e.NewNoise(autoe2e.Nominal{}, 0.05, 1),
//		Middleware: autoe2e.Config{Mode: autoe2e.ModeAutoE2E},
//		Duration:   60 * autoe2e.Second,
//	})
//
// See the examples directory for complete programs and EXPERIMENTS.md for
// the figure-by-figure reproduction record.
package autoe2e

import (
	"github.com/autoe2e/autoe2e/internal/analysis"
	"github.com/autoe2e/autoe2e/internal/core"
	"github.com/autoe2e/autoe2e/internal/exectime"
	"github.com/autoe2e/autoe2e/internal/sched"
	"github.com/autoe2e/autoe2e/internal/simtime"
	"github.com/autoe2e/autoe2e/internal/taskmodel"
	"github.com/autoe2e/autoe2e/internal/trace"
	"github.com/autoe2e/autoe2e/internal/units"
	"github.com/autoe2e/autoe2e/internal/workload"
)

// Core model types. See the respective internal packages for full
// documentation; these aliases are the supported public surface.
type (
	// System describes a distributed real-time system: ECUs, end-to-end
	// tasks, and per-ECU utilization bounds. Call Validate before use.
	System = taskmodel.System
	// Task is a periodic end-to-end task: a chain of subtasks linked by
	// release-guard precedence.
	Task = taskmodel.Task
	// Subtask is one stage of a task, pinned to an ECU, with an
	// adjustable execution-time ratio (computation precision).
	Subtask = taskmodel.Subtask
	// TaskID indexes a task within its System.
	TaskID = taskmodel.TaskID
	// SubtaskRef addresses one subtask.
	SubtaskRef = taskmodel.SubtaskRef
	// State is the mutable operating point: current rates, rate floors,
	// and execution-time ratios.
	State = taskmodel.State

	// Rate is a task invocation rate r_i in Hz. Untyped constants assign
	// directly (RateMin: 20); wrap runtime float64 values with RawRate.
	Rate = units.Rate
	// Util is a CPU-utilization fraction (a measurement u_j or a bound
	// B_j); wrap runtime float64 values with RawUtil.
	Util = units.Util
	// Ratio is an execution-time (computation precision) ratio a_il; wrap
	// runtime float64 values with RawRatio.
	Ratio = units.Ratio

	// Mode selects the middleware arm: ModeOpen, ModeEUCON or
	// ModeAutoE2E.
	Mode = core.Mode
	// Config assembles the middleware (control periods, controller
	// tuning).
	Config = core.Config
	// RunConfig describes one simulation experiment end to end.
	RunConfig = core.RunConfig
	// RunResult carries the trace, per-task accounting, and final state.
	RunResult = core.RunResult
	// Event is a scripted state change at an absolute simulation time.
	Event = core.Event
	// ChainEvent reports the fate of one end-to-end task instance.
	ChainEvent = sched.ChainEvent
	// TaskCounter is the cumulative released/completed/missed accounting
	// for one task.
	TaskCounter = sched.TaskCounter

	// Time is an absolute simulation instant (integer microseconds).
	Time = simtime.Time
	// Duration is a simulated time span (integer microseconds).
	Duration = simtime.Duration

	// ExecModel produces actual job execution demands; compose Nominal
	// with NewScript, Gain and NewNoise to model runtime variation.
	ExecModel = exectime.Model
	// Nominal charges exactly the offline estimate c·a.
	Nominal = exectime.Nominal
	// Gain scales demands per ECU (the paper's g_j uncertainty).
	Gain = exectime.Gain
	// ExecStep is one scripted execution-time change.
	ExecStep = exectime.Step

	// Recorder collects named time series during runs.
	Recorder = trace.Recorder
	// Series is one named time series.
	Series = trace.Series

	// Session is a reusable experiment runner for batch execution: one
	// engine/scheduler/middleware reset between runs, allocating
	// approximately nothing per run in steady state.
	Session = core.Session

	// Checkpoint is a complete caller-owned copy of a live mid-run
	// session, produced by Session.Snapshot and consumed (read-only, so
	// many workers may share one) by Session.Restore.
	Checkpoint = core.Checkpoint
	// Fork is one divergent continuation of a branching campaign.
	Fork = core.Fork
	// TreeConfig describes a branching campaign: a shared prefix run once
	// to ForkAt, then every Fork continued from the snapshot.
	TreeConfig = core.TreeConfig
)

// Middleware arms, matching the paper's comparison:
// OPEN (static assignment), EUCON (rate-only adaptation), AutoE2E (both
// loops).
const (
	ModeOpen    = core.ModeOpen
	ModeEUCON   = core.ModeEUCON
	ModeAutoE2E = core.ModeAutoE2E
)

// Time units.
const (
	Microsecond = simtime.Microsecond
	Millisecond = simtime.Millisecond
	Second      = simtime.Second
)

// Run executes one experiment on a fresh Session (which assembles the
// engine, scheduler and middleware and applies the scenario events) and
// returns the collected results.
func Run(cfg RunConfig) (*RunResult, error) { return core.Run(cfg) }

// NewSession returns an empty reusable runner; its first Run builds the
// plumbing, later Runs of the same shape reuse it allocation-free.
func NewSession() *Session { return core.NewSession() }

// RunAll executes several independent experiments over a bounded worker
// pool of reusable sessions, returning results in input order; every
// failing run is reported via a joined error.
func RunAll(cfgs []RunConfig, workers int) ([]*RunResult, error) {
	return core.RunAll(cfgs, workers)
}

// RunAllInto is RunAll with recycled result slots: pass the previous
// batch's results back in and the retained deep copies reuse their
// buffers instead of allocating fresh ones every campaign round.
func RunAllInto(cfgs []RunConfig, workers int, recycle []*RunResult) ([]*RunResult, error) {
	return core.RunAllInto(cfgs, workers, recycle)
}

// RunStream executes experiments pulled on demand from next over reusable
// per-worker sessions, streaming outcomes to onResult in input order. The
// *RunResult passed to onResult is session-owned and valid only during the
// callback; Clone what must be retained.
func RunStream(next func() (RunConfig, bool), workers int, onResult func(i int, r *RunResult, err error)) {
	core.RunStream(next, workers, onResult)
}

// RunTree executes a branching campaign: the shared prefix runs exactly
// once to ForkAt, is snapshotted, and every fork continues from the
// snapshot on the worker pool — never replaying the prefix. Each result is
// byte-identical to a fresh full run with that fork's mutation applied at
// ForkAt, returned in fork order.
func RunTree(tc TreeConfig) ([]*RunResult, error) { return core.RunTree(tc) }

// NewState returns the initial operating point of a validated System.
func NewState(sys *System) *State { return taskmodel.NewState(sys) }

// RMSBound returns the Liu & Layland rate-monotonic schedulable utilization
// bound n·(2^{1/n} − 1).
func RMSBound(n int) Util { return taskmodel.RMSBound(n) }

// RawRate wraps a raw float64 in Hz as a typed Rate.
func RawRate(x float64) Rate { return units.RawRate(x) }

// RawUtil wraps a raw float64 utilization fraction as a typed Util.
func RawUtil(x float64) Util { return units.RawUtil(x) }

// RawRatio wraps a raw float64 precision ratio as a typed Ratio.
func RawRatio(x float64) Ratio { return units.RawRatio(x) }

// FromMillis converts milliseconds to a simulated Duration.
func FromMillis(ms float64) Duration { return simtime.FromMillis(ms) }

// FromSeconds converts seconds to a simulated Duration.
func FromSeconds(s float64) Duration { return simtime.FromSeconds(s) }

// At converts seconds to an absolute simulation Time.
func At(s float64) Time { return simtime.At(s) }

// NewNoise wraps an ExecModel with seeded multiplicative noise of the given
// spread.
func NewNoise(inner ExecModel, spread float64, seed int64) ExecModel {
	return exectime.NewNoise(inner, spread, seed)
}

// NewScript overlays scripted execution-time step changes on an ExecModel.
func NewScript(inner ExecModel, steps []ExecStep) ExecModel {
	return exectime.NewScript(inner, steps)
}

// TestbedWorkload returns the paper's Figure 7 scaled-car workload:
// 3 ECUs, 4 end-to-end tasks.
func TestbedWorkload() *System { return workload.Testbed() }

// SimulationWorkload returns the paper's Figure 2 larger-scale workload:
// 6 ECUs, 11 typical vehicle tasks.
func SimulationWorkload() *System { return workload.Simulation() }

// SyntheticWorkload generates a random validated workload, deterministic in
// seed.
func SyntheticWorkload(seed int64, numECUs, numTasks int) *System {
	return workload.Synthetic(seed, numECUs, numTasks)
}

// Offline schedulability analysis (package analysis): holistic
// response-time analysis with jitter propagation — the "traditional
// open-loop" toolchain the paper contrasts AutoE2E against, usable here to
// certify an operating point before deployment.
type (
	// AnalysisOptions tunes the offline analysis.
	AnalysisOptions = analysis.Options
	// AnalysisReport is the complete offline analysis result.
	AnalysisReport = analysis.Report
)

// Analyze runs holistic response-time analysis at the given operating
// point and reports per-subtask responses, end-to-end latency bounds, and
// overall schedulability.
func Analyze(st *State, opts AnalysisOptions) (*AnalysisReport, error) {
	return analysis.Analyze(st, opts)
}

// MaxWCETMargin reports how much every worst-case execution time can be
// inflated before the operating point stops being schedulable.
func MaxWCETMargin(st *State, hi, resolution float64) (float64, error) {
	return analysis.MaxWCETMargin(st, hi, resolution)
}

// Sparkline renders a recorded series as a one-line ASCII chart of the
// given width — handy for terminal summaries of utilization or precision
// traces.
func Sparkline(s *Series, width int) string { return trace.Sparkline(s, width) }
