// Command perfbench is the repository's benchmark. It runs one workload
// against the simulator's public packages for a fixed time, checks that
// the outputs are correct, and prints every metric by name and unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with --trace 1 a separate, instrumented run reports the per-layer metrics
// and writes its spans under --out. See README.md for the workloads and the
// layer-to-metric map.
//
// Usage (from the repository root):
//
//	bash _perfbench/run.sh --workload campaign --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// options are the command-line inputs of one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spec     string
	out      string
	nproc    int
}

// budget returns the given share of the measuring time.
func (o options) budget(share float64) time.Duration {
	return time.Duration(share * o.seconds * float64(time.Second))
}

// workloadFunc runs one workload and fills the report. tr is nil when the
// run is untraced.
type workloadFunc func(o options, rep *report, tr *tracer) error

var workloads = map[string]workloadFunc{
	"campaign":  runCampaign,
	"substrate": runSubstrate,
	"serve":     runServe,
	"fork_tree": runForkTree,
}

// specMetric is one metric declared in BENCHMARK.json.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: campaign, substrate, serve or fork_tree")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 20, "measuring time in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the instrumented per-layer measurement")
	fs.StringVar(&o.spec, "spec", "BENCHMARK.json", "benchmark definition naming the metrics to report")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "results"), "directory for result and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag != 0
	o.nproc = runtime.GOMAXPROCS(0)
	wf, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q or non-positive --seconds\n", o.workload)
		return 2
	}
	spec, err := readSpec(o.spec)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}

	host := readHostFacts()
	hostJSON, _ := json.Marshal(host) // a struct of strings and ints always marshals
	fmt.Fprintf(stdout, "host: %s\n", hostJSON)
	fmt.Fprintf(stdout, "workload %s, seed %d, %.3g s, trace %v\n", o.workload, o.seed, o.seconds, o.trace)

	rep := newReport()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	if err := wf(o, rep, tr); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	declared := spec.EndToEnd
	if o.trace {
		declared = spec.PerLayer
		self := tr.selfTime()
		names := make([]string, 0, len(self))
		for name := range self {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			rep.notef("self time %s: %v", name, self[name])
		}
	}
	res, err := collect(rep, declared)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}

	for _, name := range rep.order {
		m := rep.metrics[name]
		fmt.Fprintf(stdout, "  %-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, n := range rep.notes {
		fmt.Fprintf(stdout, "  note: %s\n", n)
	}
	fmt.Fprintf(stdout, "attempted %d, failed %d (failed_frac %.6g)\n", rep.attempted, rep.failed, failedFrac(rep))
	if err := writeResults(o, host, rep, tr); err != nil {
		fmt.Fprintf(stderr, "perfbench: writing results: %v\n", err)
		return 1
	}
	line, _ := json.Marshal(res) // finite floats only; collect rejects the rest
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func failedFrac(rep *report) float64 {
	if rep.attempted == 0 {
		return 0
	}
	return float64(rep.failed) / float64(rep.attempted)
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// collect builds the final result from the declared metrics. A declared
// metric the workload did not measure, a unit mismatch, or a value that is
// not finite is a benchmark bug and fails the run.
func collect(rep *report, declared []specMetric) (result, error) {
	res := result{
		Correct:   rep.attempted > 0 && !rep.mismatch(),
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metric, len(declared)),
	}
	var errs []error
	for _, d := range declared {
		m, ok := rep.metrics[d.Name]
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("metric %s was not measured", d.Name))
		case m.Unit != d.Unit:
			errs = append(errs, fmt.Errorf("metric %s has unit %s, BENCHMARK.json says %s", d.Name, m.Unit, d.Unit))
		case isBad(m.Value):
			errs = append(errs, fmt.Errorf("metric %s = %v is not finite", d.Name, m.Value))
		default:
			res.Metrics[d.Name] = m
		}
	}
	return res, errors.Join(errs...)
}

func isBad(v float64) bool { return v != v || v > 1e300 || v < -1e300 }

// writeResults records the run's metrics with the host facts, and the
// traced run's spans, under o.out.
func writeResults(o options, host hostFacts, rep *report, tr *tracer) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	trace := 0
	if o.trace {
		trace = 1
	}
	stem := fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, trace)
	doc := struct {
		Host      hostFacts         `json:"host"`
		Workload  string            `json:"workload"`
		Seed      int64             `json:"seed"`
		Seconds   float64           `json:"seconds"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
		Notes     []string          `json:"notes"`
	}{host, o.workload, o.seed, o.seconds, rep.attempted, rep.failed, rep.metrics, rep.notes}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.out, stem+".json"), data, 0o644); err != nil {
		return err
	}
	if tr == nil {
		return nil
	}
	return tr.writeJSONL(filepath.Join(o.out, stem+".spans.jsonl"))
}

// noiseSeed derives run i's execution-noise seed from the workload seed
// (splitmix64), so the same --seed always yields the same inputs.
func noiseSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}
