package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/autoe2e/autoe2e/internal/core"
	"github.com/autoe2e/autoe2e/internal/scenario"
	"github.com/autoe2e/autoe2e/internal/simtime"
)

const specPath = "../BENCHMARK.json"

// TestSmokeEveryWorkload runs every workload briefly, untraced and traced,
// and checks that the last line reports every declared metric with its
// unit and that the human-readable lines print each of them too.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range []string{"campaign", "substrate", "serve", "fork_tree"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", wl, "--seed", "3", "--seconds", "0.5", "--trace", trace,
					"--spec", specPath, "--out", t.TempDir()}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstderr:\n%s\nstdout:\n%s", code, stderr.String(), stdout.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, stdout.String())
				}
				declared := spec.EndToEnd
				if trace == "1" {
					declared = spec.PerLayer
				}
				if len(res.Metrics) != len(declared) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(declared))
				}
				for _, d := range declared {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.Name, m, d.Unit)
					}
					if trace == "0" && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
					if !containsMetricLine(lines, d.Name, d.Unit) {
						t.Errorf("no printed line for %s in %s", d.Name, d.Unit)
					}
				}
			})
		}
	}
}

func containsMetricLine(lines []string, name, unit string) bool {
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) == 3 && f[0] == name && f[2] == unit {
			return true
		}
	}
	return false
}

// TestCorruptedResultTripsCheck corrupts each compared part of a result and
// checks that the comparison with a fresh core.Run reports a mismatch and
// that the run is then not correct.
func TestCorruptedResultTripsCheck(t *testing.T) {
	cfg := scenario.SimRestore(7)
	cfg.Duration = 10 * simtime.Second
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() core.RunConfig {
		c := scenario.SimRestore(7)
		c.Duration = 10 * simtime.Second
		return c
	}

	rep := newReport()
	rep.attempted = 1
	checkAgainstFresh(rep, "intact", fingerprintOf(res), fresh())
	if rep.mismatch() {
		t.Fatalf("intact result reported as a mismatch: %v", rep.notes)
	}

	corruptions := map[string]func(fp *fingerprint){
		"trace":     func(fp *fingerprint) { fp.trace[len(fp.trace)/2] ^= 1 },
		"counters":  func(fp *fingerprint) { fp.counters[0].Missed++ },
		"precision": func(fp *fingerprint) { fp.precision ^= 1 },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			fp := fingerprintOf(res)
			corrupt(&fp)
			rep := newReport()
			rep.attempted = 1
			checkAgainstFresh(rep, name, fp, fresh())
			if rep.mismatches != 1 || rep.failed != 1 {
				t.Fatalf("mismatches=%d failed=%d, want 1 and 1", rep.mismatches, rep.failed)
			}
			out, err := collect(rep, nil)
			if err != nil || out.Correct {
				t.Fatalf("collect: correct=%v err=%v, want an incorrect result", out.Correct, err)
			}
		})
	}

	t.Run("served summary", func(t *testing.T) {
		doc := summaryDoc{MissRatio: res.OverallMissRatio(), TotalPrecision: res.State.TotalPrecision()}
		for _, c := range res.Counters {
			doc.Counters = append(doc.Counters, counterDoc{c.Released, c.Completed, c.Missed})
		}
		if d := summaryDiff(doc, res); d != "" {
			t.Fatalf("intact summary: %s", d)
		}
		doc.Counters[1].Completed--
		if summaryDiff(doc, res) == "" {
			t.Fatal("corrupted summary counters not detected")
		}
	})
}

// TestMissingMetricFailsCollect checks that a declared metric the workload
// did not measure, or measured in another unit, is an error.
func TestMissingMetricFailsCollect(t *testing.T) {
	rep := newReport()
	rep.attempted = 1
	rep.set("runs_per_s", "runs/s", 3)
	if _, err := collect(rep, []specMetric{{"runs_per_s", "runs/s"}}); err != nil {
		t.Fatalf("declared and measured: %v", err)
	}
	if _, err := collect(rep, []specMetric{{"campaign_s", "s"}}); err == nil {
		t.Fatal("unmeasured metric accepted")
	}
	if _, err := collect(rep, []specMetric{{"runs_per_s", "1/s"}}); err == nil {
		t.Fatal("unit mismatch accepted")
	}
}

// TestPlanRepeatsForASeed checks that the served schedule is a function of
// the seed and keeps the mix shares exactly.
func TestPlanRepeatsForASeed(t *testing.T) {
	a, b := makePlan(5, 1, 300, 500), makePlan(5, 1, 300, 500)
	counts := make([]int, len(serveMix))
	for i := range a {
		if a[i].due != b[i].due || !bytes.Equal(a[i].body, b[i].body) {
			t.Fatalf("request %d differs between two plans of one seed", i)
		}
		counts[a[i].kind]++
	}
	for k, m := range serveMix {
		if counts[k] != m.per50*10 {
			t.Errorf("kind %s: %d requests, want %d", m.name, counts[k], m.per50*10)
		}
	}
}

// TestSimulatedMetricsRepeat checks that miss_ratio and precision_mean, which
// are statistics of the deterministic simulator, repeat exactly for a seed.
func TestSimulatedMetricsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two workloads twice")
	}
	for _, wl := range []string{"substrate", "serve"} {
		var got [2]result
		for i := range got {
			var stdout, stderr bytes.Buffer
			if code := run([]string{"--workload", wl, "--seed", "11", "--seconds", "0.5", "--trace", "0",
				"--spec", specPath, "--out", t.TempDir()}, &stdout, &stderr); code != 0 {
				t.Fatalf("%s: exit %d: %s", wl, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got[i]); err != nil {
				t.Fatal(err)
			}
		}
		for _, name := range []string{"miss_ratio", "precision_mean"} {
			if a, b := got[0].Metrics[name].Value, got[1].Metrics[name].Value; a != b {
				t.Errorf("%s %s: %v then %v for one seed", wl, name, a, b)
			}
		}
	}
}

// TestNormalizeStatesFiguresAtReferenceSpeed checks that normalize divides
// times and multiplies rates by the host slowdown and keeps the figures as
// measured under raw.<name>.
func TestNormalizeStatesFiguresAtReferenceSpeed(t *testing.T) {
	var h hostSpeed
	h.ns.add(2 * refNominalNs) // a host at half the reference speed
	rep := newReport()
	rep.set("campaign_s", "s", 3)
	rep.set("runs_per_s", "runs/s", 10)
	rep.set("lat_p50_ms.low", "ms", 1.5)
	h.normalize(rep, "campaign_s", "runs_per_s")
	want := map[string]float64{"campaign_s": 1.5, "runs_per_s": 20, "raw.campaign_s": 3, "raw.runs_per_s": 10, "lat_p50_ms.low": 1.5, "host.slowdown": 2}
	for name, v := range want {
		if got := rep.metrics[name].Value; got != v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	if _, ok := rep.metrics["raw.lat_p50_ms.low"]; ok {
		t.Error("a figure not named was restated")
	}
}
