package main

import (
	"fmt"
	"time"

	"github.com/autoe2e/autoe2e/internal/core"
	"github.com/autoe2e/autoe2e/internal/exectime"
	"github.com/autoe2e/autoe2e/internal/scenario"
	"github.com/autoe2e/autoe2e/internal/simtime"
	"github.com/autoe2e/autoe2e/internal/taskmodel"
	"github.com/autoe2e/autoe2e/internal/units"
	"github.com/autoe2e/autoe2e/internal/workload"
)

const (
	forkBranches = 64
	forkAt       = simtime.Time(300 * simtime.Second)
)

// forkLayerMetrics are the core snapshot/fork metrics only fork_tree
// exercises.
var forkLayerMetrics = []specMetric{
	{"core.snapshot_us", "us"}, {"core.restore_us", "us"}, {"core.prefix_ms", "ms"},
	{"core.fork_ms.p50", "ms"}, {"core.fork_ms.p99", "ms"},
}

// forkRun is the state of one fork_tree run: TestbedAcceleration (400 s)
// forked at 300 s into 64 branches, one campaign per noise seed.
type forkRun struct {
	o     options
	rep   *report
	tr    *tracer
	base  core.RunConfig // held: every campaign shares its *System
	forks []core.Fork
	next  int // campaign index; indexes derive the noise seeds

	checks map[[2]int]fingerprint
	sess   *core.Session // the Session-API campaigns' session, kept warm
	speed  hostSpeed
}

// buildForks returns the branches: each scales the final acceleration
// step's rate floors by its own factor in [0.75, 1.05), applied at the fork
// instant and again at 320 s, where the base scenario's own step would
// otherwise erase the difference.
func buildForks(seed int64) []core.Fork {
	forks := make([]core.Fork, forkBranches)
	for k := range forks {
		u := float64(uint64(noiseSeed(seed^0x5f0c, k))>>11) / (1 << 52)
		f := 0.75 + 0.3*u
		set := func(st *taskmodel.State) {
			st.SetRateFloor(workload.TestbedSteerByWire, units.Rate(100*f))
			st.SetRateFloor(workload.TestbedDriveByWire, units.Rate(100*f))
			st.SetRateFloor(workload.TestbedSteerCtrl, units.Rate(30*f))
			st.SetRateFloor(workload.TestbedSpeedCtrl, units.Rate(30*f))
		}
		forks[k] = core.Fork{Mutate: set, Events: []core.Event{{At: simtime.At(320), Do: set}}}
	}
	return forks
}

// baseFor returns campaign c's base config: the held scenario with a fresh
// noise model seeded from (seed, c).
func (f *forkRun) baseFor(c int) core.RunConfig {
	cfg := f.base
	cfg.Exec = exectime.NewNoise(exectime.Nominal{}, scenario.ExecNoise, noiseSeed(f.o.seed, c))
	return cfg
}

// freshBranch is branch k of campaign c as one plain run: the base events
// followed by the fork's mutation and events.
func (f *forkRun) freshBranch(c, k int) core.RunConfig {
	cfg := f.baseFor(c)
	fork := f.forks[k]
	events := append([]core.Event(nil), cfg.Events...)
	events = append(events, core.Event{At: forkAt, Do: fork.Mutate})
	cfg.Events = append(events, fork.Events...)
	return cfg
}

// campaign runs one RunTree campaign and returns its results.
func (f *forkRun) campaign(workers int, forks []core.Fork) ([]*core.RunResult, int, error) {
	c := f.next
	f.next++
	res, err := core.RunTree(core.TreeConfig{
		Base:    func() core.RunConfig { return f.baseFor(c) },
		ForkAt:  forkAt,
		Forks:   forks,
		Workers: workers,
	})
	return res, c, err
}

// forkSimulated is the number of leading mid-level campaigns the simulated
// metrics are taken over; each campaign's branches share one prefix, so
// one campaign alone would be one noise draw.
const forkSimulated = 4

// forkLevel is what one load level measured.
type forkLevel struct {
	campaignS sample
}

// perSecond is branches per second over the mean campaign time (see
// levelStats.perSecond).
func (l forkLevel) perSecond() float64 { return forkBranches / l.campaignS.mean() }

// level runs whole RunTree campaigns on the given worker count until d has
// passed. It records no spans: the traced run's spans come from
// sessionCampaigns.
func (f *forkRun) level(l *forkLevel, workers int, d time.Duration, simulated bool) {
	var sim []*core.RunResult
	start := time.Now()
	var last time.Duration
	for n := 0; n == 0 || endsBefore(start, last, d) || (simulated && n < forkSimulated); n++ {
		t0 := time.Now()
		res, c, err := f.campaign(workers, f.forks)
		last = time.Since(t0)
		l.campaignS.add(last.Seconds())
		f.speed.measure(f.o.nproc)
		f.rep.attempted += forkBranches
		if err != nil {
			f.rep.fail("campaign %d: %v", c, err)
			continue
		}
		if simulated && n < forkSimulated {
			sim = append(sim, res...)
			if n == forkSimulated-1 {
				f.reportSimulated(sim)
			}
		}
		if c%7 == 0 {
			for _, k := range []int{0, c % forkBranches, forkBranches - 1} {
				f.checks[[2]int{c, k}] = fingerprintOf(res[k])
			}
		}
	}
}

// reportSimulated reports miss_ratio and precision_mean over the branches
// of the leading mid-level campaigns, so they repeat for a seed.
func (f *forkRun) reportSimulated(res []*core.RunResult) {
	var missed, resolved uint64
	prec := 0.0
	for _, r := range res {
		for _, c := range r.Counters {
			missed += c.Missed
			resolved += c.Missed + c.Completed
		}
		prec += precisionMean(r)
	}
	f.rep.set("miss_ratio", "fraction", float64(missed)/float64(resolved))
	f.rep.set("precision_mean", "ratio", prec/float64(len(res)))
	f.rep.notef("miss_ratio and precision_mean over the %d branches of the first %d campaigns (%d missed of %d resolved)", len(res), forkSimulated, missed, resolved)
}

// setup builds the scenario and runs a warm-up campaign of one branch per
// worker, reps times with a fresh system; it reports the median.
func (f *forkRun) setup(reps int) float64 {
	var s sample
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		f.base = scenario.TestbedAcceleration(core.ModeAutoE2E, 0)
		f.forks = buildForks(f.o.seed)
		saved := f.next
		f.next = setupBase + rep
		if _, _, err := f.campaign(f.o.nproc, f.forks[:f.o.nproc]); err != nil {
			f.rep.fail("setup campaign: %v", err)
		}
		f.next = saved
		s.add(time.Since(t0).Seconds())
	}
	return s.p50()
}

func runForkTree(o options, rep *report, tr *tracer) error {
	f := &forkRun{o: o, rep: rep, tr: tr, checks: map[[2]int]fingerprint{}}
	n := o.nproc
	if !o.trace {
		setupS := f.setup(setupReps)
		var low, mid, high forkLevel
		for p := 0; p < passes; p++ {
			f.level(&mid, n, o.budget(midShare/passes), p == 0)
			f.level(&low, 1, o.budget(lowShare/passes), false)
			f.level(&high, 2*n, o.budget(highShare/passes), false)
		}
		rep.set("setup_s", "s", setupS)
		rep.set("runs_per_s", "runs/s", mid.perSecond())
		rep.set("campaign_s", "s", mid.campaignS.mean())
		for _, l := range []struct {
			name string
			l    forkLevel
		}{{"low", low}, {"mid", mid}, {"high", high}} {
			rep.set("lat_p50_ms."+l.name, "ms", 1000*l.l.campaignS.p50())
			rep.notef("level %s: %d campaigns of %d branches; latency is per campaign", l.name, len(l.l.campaignS), forkBranches)
		}
		f.speed.normalize(rep, computeTimed...)
	} else {
		f.setup(1)
		// The first session campaign builds the session; it is not measured.
		f.sess = core.NewSession()
		if err := f.sessionCampaigns(&sessionStats{}, 0, false); err != nil {
			return err
		}
		var low, mid forkLevel
		var base, st sessionStats
		for p := 0; p < passes; p++ {
			f.level(&mid, n, o.budget(0.3/passes), false)
			f.level(&low, 1, o.budget(0.2/passes), false)
			if err := f.sessionCampaigns(&base, o.budget(0.15/passes), false); err != nil {
				return err
			}
			if err := f.sessionCampaigns(&st, o.budget(0.25/passes), true); err != nil {
				return err
			}
		}
		st.layers.emit(rep, st.forkMs.p50())
		rep.set("core.run_ms.p50", "ms", st.forkMs.p50())
		rep.set("core.run_ms.p99", "ms", st.forkMs.p99())
		rep.set("core.prefix_ms", "ms", st.prefixMs.p50())
		rep.set("core.snapshot_us", "us", st.snapUs.p50())
		rep.set("core.restore_us", "us", st.restUs.p50())
		rep.set("core.fork_ms.p50", "ms", st.forkMs.p50())
		rep.set("core.fork_ms.p99", "ms", st.forkMs.p99())
		rep.set("trace_overhead", "ratio", st.campaignS.p50()/base.campaignS.p50())
		rep.notef("traced: %d serial Session campaigns (%d untraced for the overhead base); run_ms is one branch's Resume",
			len(st.campaignS), len(base.campaignS))
		rep.set("core.cold_run_ms", "ms", f.coldRunMs())
		rep.set("parallel.scaling", "ratio", mid.perSecond()/(float64(n)*low.perSecond()))
		zeroUnexercised(rep, serveLayerMetrics)
	}
	for key, fp := range f.checks {
		checkAgainstFresh(rep, fmt.Sprintf("campaign %d branch %d", key[0], key[1]), fp, f.freshBranch(key[0], key[1]))
	}
	rep.notef("correctness: %d sampled branches compared with a fresh core.Run", len(f.checks))
	return nil
}

// sessionStats is what serial Session-API campaigns measured.
type sessionStats struct {
	layers                   layerStats
	prefixMs, snapUs, restUs sample
	forkMs, campaignS        sample
}

// sessionCampaigns runs serial campaigns through the Session API RunTree
// uses — RunPartial, SnapshotInto, Restore, Resume — for at least d, timing
// each call into st. Traced campaigns also record spans and count work
// through the run hooks; untraced ones are the base of the tracing
// overhead. The first traced campaign's prefix is replayed through the
// controllers.
func (f *forkRun) sessionCampaigns(st *sessionStats, d time.Duration, traced bool) error {
	var (
		buf  []byte
		cp   = new(core.Checkpoint)
		sess = f.sess
		mw   = f.base.Middleware
		tr   *tracer
	)
	if traced {
		tr = f.tr
	}
	start := time.Now()
	var last time.Duration
	for n := 0; n == 0 || endsBefore(start, last, d); n++ {
		c := f.next
		f.next++
		root := tr.begin("campaign", 0, int64(c))
		t0 := time.Now()
		replay := traced && st.layers.replayedRuns == 0
		pre := &runProbe{traced: traced, capture: replay}
		cfg := f.baseFor(c)
		pre.instrument(&cfg)
		if err := sess.RunPartial(cfg, forkAt); err != nil {
			return fmt.Errorf("prefix: %w", err)
		}
		t1 := time.Now()
		if _, err := sess.SnapshotInto(cp); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		t2 := time.Now()
		tr.record("core.Session.RunPartial", root, int64(c), t0, t1)
		tr.record("core.Session.SnapshotInto", root, int64(c), t1, t2)
		st.prefixMs.add(ms(t1.Sub(t0)))
		st.snapUs.add(us(t2.Sub(t1)))
		for k, fork := range f.forks {
			t3 := time.Now()
			if err := sess.Restore(cp); err != nil {
				return fmt.Errorf("restore: %w", err)
			}
			t4 := time.Now()
			// Resume ignores Attach; the restored session keeps its engine.
			p := &runProbe{traced: traced, eng: pre.eng}
			w := f.baseFor(c)
			w.System = nil
			w.Events = append([]core.Event{{At: forkAt, Do: fork.Mutate}}, fork.Events...)
			p.instrument(&w)
			res, err := sess.Resume(w)
			t5 := time.Now()
			f.rep.attempted++
			if err != nil {
				f.rep.fail("campaign %d branch %d: %v", c, k, err)
				continue
			}
			tr.record("core.Session.Restore", root, int64(c), t3, t4)
			bid := tr.record("core.Session.Resume", root, int64(c), t4, t5)
			st.restUs.add(us(t4.Sub(t3)))
			st.forkMs.add(ms(t5.Sub(t4)))
			if traced {
				st.layers.addRun(p, res, mw, &buf, tr, bid, int64(c))
			}
			if k == c%forkBranches {
				f.checks[[2]int{c, k}] = fingerprintOf(res)
			}
		}
		tr.end(root)
		last = time.Since(t0)
		st.campaignS.add(last.Seconds())
		if replay {
			if err := st.layers.replay(pre, mw, tr, int64(c)); err != nil {
				return err
			}
		}
	}
	return nil
}

// coldRunMs times fresh-allocation core.Run calls of one whole branch.
func (f *forkRun) coldRunMs() float64 {
	var s sample
	for k := 0; k < 3; k++ {
		cfg := f.freshBranch(k, k)
		t0 := time.Now()
		if _, err := core.Run(cfg); err != nil {
			f.rep.fail("cold run: %v", err)
		}
		s.add(ms(time.Since(t0)))
	}
	return s.p50()
}
