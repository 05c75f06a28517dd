// Command autoe2e-sim runs one AutoE2E simulation scenario and emits its
// time series as CSV plus a terminal summary.
//
// Usage:
//
//	autoe2e-sim [flags]
//
//	-workload  testbed | simulation | synthetic   (default testbed)
//	-mode      open | eucon | autoe2e             (default autoe2e)
//	-scenario  none | accel | restore             (default accel)
//	-duration  simulated seconds (default scenario-specific)
//	-seed      noise seed (default 1)
//	-ecus, -tasks  shape for -workload synthetic
//	-csv       write all recorded series to this file (long format)
//	-wide      write aligned per-series columns instead of long format
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"github.com/autoe2e/autoe2e/internal/analysis"
	"github.com/autoe2e/autoe2e/internal/core"
	"github.com/autoe2e/autoe2e/internal/exectime"
	"github.com/autoe2e/autoe2e/internal/scenario"
	"github.com/autoe2e/autoe2e/internal/simtime"
	"github.com/autoe2e/autoe2e/internal/stats"
	"github.com/autoe2e/autoe2e/internal/taskmodel"
	"github.com/autoe2e/autoe2e/internal/trace"
	"github.com/autoe2e/autoe2e/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("autoe2e-sim: ")

	workloadName := flag.String("workload", "testbed", "testbed | simulation | synthetic")
	modeName := flag.String("mode", "autoe2e", "open | eucon | autoe2e")
	scenarioName := flag.String("scenario", "accel", "none | accel | restore")
	duration := flag.Float64("duration", 0, "simulated seconds (0 = scenario default)")
	seed := flag.Int64("seed", 1, "execution-time noise seed")
	numECUs := flag.Int("ecus", 4, "ECUs for -workload synthetic")
	numTasks := flag.Int("tasks", 12, "tasks for -workload synthetic")
	csvPath := flag.String("csv", "", "write recorded series to this CSV file")
	wide := flag.Bool("wide", false, "wide CSV layout (one column per series)")
	analyze := flag.Bool("analyze", false, "print the offline schedulability analysis of the initial operating point")
	flag.Parse()

	mode, err := parseMode(*modeName)
	if err != nil {
		log.Fatal(err)
	}
	cfg, err := buildConfig(*workloadName, *scenarioName, mode, *seed, *numECUs, *numTasks)
	if err != nil {
		log.Fatal(err)
	}
	if cfg.Duration, err = durationOverride(*duration, cfg.Duration); err != nil {
		log.Fatal(err)
	}

	if *analyze {
		printAnalysis(cfg)
	}

	res, err := core.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	printSummary(cfg, res, mode)

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if *wide {
			err = res.Trace.WriteWideCSV(f)
		} else {
			err = res.Trace.WriteCSV(f)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ntrace written to %s\n", *csvPath)
	}
}

// durationOverride applies the -duration flag: 0 keeps the scenario's
// default length def, a positive number of seconds replaces it, and
// anything else (negative, NaN, or too long for a simtime.Duration) is an
// error rather than a silent fallback to the default.
func durationOverride(seconds float64, def simtime.Duration) (simtime.Duration, error) {
	if seconds == 0 {
		return def, nil
	}
	if !(seconds > 0 && seconds < simtime.Unbounded.Seconds()) {
		return 0, fmt.Errorf("-duration %v: want a positive number of simulated seconds (0 = scenario default)", seconds)
	}
	return simtime.FromSeconds(seconds), nil
}

func parseMode(s string) (core.Mode, error) {
	switch strings.ToLower(s) {
	case "open":
		return core.ModeOpen, nil
	case "eucon":
		return core.ModeEUCON, nil
	case "autoe2e":
		return core.ModeAutoE2E, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (want open, eucon or autoe2e)", s)
	}
}

func buildConfig(wl, sc string, mode core.Mode, seed int64, ecus, tasks int) (core.RunConfig, error) {
	switch strings.ToLower(wl) {
	case "testbed":
		switch sc {
		case "accel":
			return scenario.TestbedAcceleration(mode, seed), nil
		case "restore":
			if mode != core.ModeAutoE2E {
				return core.RunConfig{}, fmt.Errorf("scenario restore requires -mode autoe2e (the restorer is AutoE2E's)")
			}
			return scenario.TestbedRestore(seed), nil
		case "none":
			cfg := scenario.TestbedAcceleration(mode, seed)
			cfg.Events = nil
			cfg.Duration = 60 * simtime.Second
			return cfg, nil
		}
	case "simulation":
		switch sc {
		case "accel":
			return scenario.SimAcceleration(mode, seed), nil
		case "restore":
			if mode != core.ModeAutoE2E {
				return core.RunConfig{}, fmt.Errorf("scenario restore requires -mode autoe2e")
			}
			return scenario.SimRestore(seed), nil
		case "none":
			cfg := scenario.SimAcceleration(mode, seed)
			cfg.Events = nil
			return cfg, nil
		}
	case "synthetic":
		if sc != "none" {
			return core.RunConfig{}, fmt.Errorf("synthetic workloads support only -scenario none")
		}
		if ecus < 1 || tasks < 1 {
			return core.RunConfig{}, fmt.Errorf("synthetic workload needs -ecus >= 1 and -tasks >= 1 (got %d, %d)", ecus, tasks)
		}
		return core.RunConfig{
			System:     workload.Synthetic(seed, ecus, tasks),
			Exec:       exectime.NewNoise(exectime.Nominal{}, scenario.ExecNoise, seed),
			Middleware: core.Config{Mode: mode, InnerPeriod: simtime.Second},
			Duration:   60 * simtime.Second,
		}, nil
	default:
		return core.RunConfig{}, fmt.Errorf("unknown workload %q (want testbed, simulation or synthetic)", wl)
	}
	return core.RunConfig{}, fmt.Errorf("unknown scenario %q (want none, accel or restore)", sc)
}

// printAnalysis runs the offline holistic schedulability analysis at the
// scenario's initial operating point.
func printAnalysis(cfg core.RunConfig) {
	st := taskmodel.NewState(cfg.System)
	if cfg.Setup != nil {
		cfg.Setup(st)
	}
	rep, err := analysis.Analyze(st, analysis.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("offline analysis of the initial operating point (schedulable: %v):\n", rep.Schedulable)
	for _, tr := range rep.Tasks {
		status := "ok"
		if !tr.Schedulable {
			status = "UNSCHEDULABLE"
		}
		fmt.Printf("  %-24s E2E bound %-12v deadline %-12v %s\n",
			cfg.System.Tasks[tr.Task].Name, tr.E2ELatency, tr.Deadline, status)
	}
	margin, err := analysis.MaxWCETMargin(st, 64, 0.01)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  maximum WCET inflation before infeasibility: %.2fx\n\n", margin)
}

func printSummary(cfg core.RunConfig, res *core.RunResult, mode core.Mode) {
	sys := cfg.System
	fmt.Printf("%v on %d ECUs / %d tasks for %v\n", mode, sys.NumECUs, len(sys.Tasks), cfg.Duration)
	fmt.Printf("overall deadline miss ratio: %.4f\n", res.OverallMissRatio())
	fmt.Printf("final computation precision: %.3f\n\n", res.State.TotalPrecision())

	fmt.Println("per-ECU utilization (bound | sparkline | settled mean of last quarter):")
	total := cfg.Duration.Seconds()
	for j := 0; j < sys.NumECUs; j++ {
		s := res.Trace.Series(fmt.Sprintf("util.ecu%d", j))
		if s == nil {
			fmt.Printf("  ECU%d  %.3f | no samples: the run ended before the first control period\n", j+1, sys.UtilBound[j])
			continue
		}
		lo, hi := s.WindowBounds(total*3/4, total)
		settled := stats.Mean(s.V[lo:hi])
		fmt.Printf("  ECU%d  %.3f | %s | %.3f\n", j+1, sys.UtilBound[j], trace.Sparkline(s, 50), settled)
	}

	fmt.Println("\nper-task accounting:")
	for i, c := range res.Counters {
		fmt.Printf("  %-24s rate %6.1f Hz  released %6d  missed %5d  (%.3f)\n",
			sys.Tasks[i].Name, res.State.Rate(taskmodel.TaskID(i)), c.Released, c.Missed, c.MissRatio())
	}
}
