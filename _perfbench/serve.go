package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/autoe2e/autoe2e/internal/core"
	"github.com/autoe2e/autoe2e/internal/exectime"
	"github.com/autoe2e/autoe2e/internal/serve"
	"github.com/autoe2e/autoe2e/internal/simtime"
	"github.com/autoe2e/autoe2e/internal/taskmodel"
	"github.com/autoe2e/autoe2e/internal/trace/colfmt"
	"github.com/autoe2e/autoe2e/internal/workload"
)

// serveRates are the fixed open-loop arrival rates (requests/s) of the
// three load levels, chosen once below the knee of a 2-CPU host.
var serveRates = []struct {
	name string
	rps  float64
}{{"low", 300}, {"mid", 600}, {"high", 1000}}

const (
	// latencyLimitMs is the client p99 a ladder rung must meet.
	latencyLimitMs = 50
	// ladderBase and ladderStep define the fixed rate ladder: rung k
	// offers ladderBase·ladderStep^k requests/s.
	ladderBase = 200
	ladderStep = 1.04
	ladderTop  = 96 // 8634 req/s, far above the reference host's knee
	// serveRounds is the number of fresh servers a run measures on. One
	// server instance runs in one of two speeds for its whole life, so a
	// run pools many of them to keep that draw from setting its figures.
	serveRounds = 12
	// levelShare is the share of the measuring time one load level takes,
	// split over the rounds; rungShare is the share one ladder probe takes.
	levelShare = 0.17
	rungShare  = 0.02
	// campaignsPerRound is the number of sweep campaigns each server runs.
	campaignsPerRound = 2
	// serveFixedPerRound is the number of leading low-level requests per
	// round that the simulated metrics and the correctness check cover.
	serveFixedPerRound = 50
	// ladderSalt offsets the request salts of ladder probes from those of
	// the load levels (round·8 + level).
	ladderSalt = 1 << 16
	// noiseSpread is the execution-noise spread of every served run.
	noiseSpread = 0.05
)

// mixKind is one request shape of the served traffic.
type mixKind struct {
	name   string
	per50  int // requests of this kind in every block of 50
	wl     serve.WorkloadSpec
	durS   float64
	mode   core.Mode
	colfmt bool
	sweep  int // seeds per sweep; 0 for a single run
}

// serveMix is the request mix: mostly 2 s testbed summary runs, with
// minorities asking for colfmt traces, 8-seed sweeps, and runs of two other
// workload shapes. The synthetic shape is the one whose runs miss deadlines;
// it runs the OPEN arm, because its 32-task MPC would hold a connection for
// tens of milliseconds and turn the mix into a synthetic-MPC benchmark.
var serveMix = []mixKind{
	{name: "testbed", per50: 36, wl: serve.WorkloadSpec{Name: "testbed"}, durS: 2, mode: core.ModeAutoE2E},
	{name: "testbed_colfmt", per50: 5, wl: serve.WorkloadSpec{Name: "testbed"}, durS: 2, mode: core.ModeAutoE2E, colfmt: true},
	{name: "testbed_sweep8", per50: 3, wl: serve.WorkloadSpec{Name: "testbed"}, durS: 2, mode: core.ModeAutoE2E, sweep: 8},
	{name: "simulation", per50: 4, wl: serve.WorkloadSpec{Name: "simulation"}, durS: 0.5, mode: core.ModeAutoE2E},
	{name: "synthetic", per50: 2, wl: serve.WorkloadSpec{Name: "synthetic", Seed: substrateSystemSeed, ECUs: 8, Tasks: 32}, durS: 2, mode: core.ModeOpen},
}

// serveStages are the server stages reported per level. Stage timings are
// read from whatever the responses carry; a stage the server stops
// reporting reads 0.
var serveStages = []string{"queue_wait", "batch_wait", "run", "serialize"}

// serveLayerMetrics are the per-level serve and load-generator metrics.
var serveLayerMetrics = func() []specMetric {
	var out []specMetric
	for _, l := range serveRates {
		for _, st := range serveStages {
			out = append(out, specMetric{"serve." + st + "_us.p50." + l.name, "us"})
			if st != "serialize" {
				out = append(out, specMetric{"serve." + st + "_us.p99." + l.name, "us"})
			}
		}
		out = append(out,
			specMetric{"serve.outside_us.p50." + l.name, "us"},
			specMetric{"serve.outside_us.p99." + l.name, "us"},
			specMetric{"serve.rejected_frac." + l.name, "fraction"},
			specMetric{"loadgen.lag_ms.p99." + l.name, "ms"})
	}
	return out
}()

// request is one planned request with the inputs it was built from.
type request struct {
	planned
	seeds []int64
}

func runSpec(k mixKind, seed int64) serve.RunSpec {
	spec := serve.RunSpec{
		Workload:  k.wl,
		Mode:      strings.ToLower(k.mode.String()),
		DurationS: k.durS,
		Noise:     serve.NoiseSpec{Spread: noiseSpread, Seed: seed},
	}
	if k.colfmt {
		spec.Trace = serve.TraceColfmt
	}
	return spec
}

// makePlan builds n requests at a mean rate of rps. Request i is due at a
// uniformly random instant of the i-th slot of width 1/rps: the jitter
// keeps the schedule from locking to the host's timer tick, which would
// otherwise make the generator's lateness a per-run constant. The kinds
// follow the mix exactly in every block of 50, shuffled by the seed, so
// the share of each shape does not vary between seeds.
func makePlan(seed int64, salt int, rps float64, n int) []request {
	rng := rand.New(rand.NewSource(noiseSeed(seed, salt)))
	var deck []int
	for k, m := range serveMix {
		for j := 0; j < m.per50; j++ {
			deck = append(deck, k)
		}
	}
	plan := make([]request, n)
	for i := range plan {
		if i%len(deck) == 0 {
			rng.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
		}
		kind := deck[i%len(deck)]
		m := serveMix[kind]
		slot := float64(i) + rng.Float64()
		r := request{planned: planned{due: time.Duration(slot / rps * float64(time.Second)), kind: kind}}
		base := noiseSeed(seed*7919+int64(salt), i)
		var body any
		if m.sweep > 0 {
			r.path = "/v1/sweep"
			for j := 0; j < m.sweep; j++ {
				r.seeds = append(r.seeds, base+int64(j))
			}
			body = serve.SweepSpec{Base: runSpec(m, 0), Seeds: r.seeds}
		} else {
			r.path = "/v1/run"
			r.seeds = []int64{base}
			body = runSpec(m, base)
		}
		r.body, _ = json.Marshal(body) // plain structs of strings and numbers
		plan[i] = r
	}
	return plan
}

// summaryDoc is the served run summary.
type summaryDoc struct {
	MissRatio      float64      `json:"miss_ratio"`
	TotalPrecision float64      `json:"total_precision"`
	Counters       []counterDoc `json:"counters"`
}

type counterDoc struct {
	Released  uint64 `json:"released"`
	Completed uint64 `json:"completed"`
	Missed    uint64 `json:"missed"`
}

type runDoc struct {
	Summary summaryDoc       `json:"summary"`
	Timing  map[string]int64 `json:"timing_ns"`
}

// bodyDoc covers both JSON response bodies: one run, or a sweep's runs.
type bodyDoc struct {
	runDoc
	Runs []runDoc `json:"runs"`
}

// liveServer is an in-process serve.Server listening on loopback.
type liveServer struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	client *http.Client
	done   chan error
}

func startServer(conns int) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := serve.NewServer(serve.Options{})
	l := &liveServer{
		srv:    s,
		hs:     &http.Server{Handler: s.Handler()},
		base:   "http://" + ln.Addr().String(),
		client: newClient(conns),
		done:   make(chan error, 1),
	}
	go func() { l.done <- l.hs.Serve(ln) }()
	return l, nil
}

// stop closes the listener and connections, drains the server, and waits
// for the serving goroutine to end.
func (l *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errHTTP := l.hs.Shutdown(ctx)
	errServe := l.srv.Shutdown(ctx)
	l.client.CloseIdleConnections()
	if err := <-l.done; !errors.Is(err, http.ErrServerClosed) {
		return errors.Join(errHTTP, errServe, err)
	}
	return errors.Join(errHTTP, errServe)
}

// segment is one stretch of a level's schedule, sent to one server.
type segment struct {
	salt  int
	plan  []request
	start time.Time
	outs  []outcome
}

// serveLevel is what one open-loop load level measured, pooled over the
// segments every round sent to its own server.
type serveLevel struct {
	name        string
	rps         float64
	segs        []segment
	latMs       sample // every request, from its due instant
	singleLatMs sample // single-run requests only
	lagMs       sample
	outsideUs   sample
	stageUs     map[string]*sample
	sent        int
	ok          int
	rejected    int
	failed      int
	runs        int
	busy        time.Duration // from each segment's start to its last response
}

func newServeLevel(name string, rps float64) *serveLevel {
	l := &serveLevel{name: name, rps: rps, stageUs: map[string]*sample{}}
	for _, st := range serveStages {
		l.stageUs[st] = &sample{}
	}
	return l
}

// serveRun is the state of one serve workload run.
type serveRun struct {
	o     options
	rep   *report
	tr    *tracer
	live  *liveServer
	speed hostSpeed
}

// send runs one segment of level l for d on the live server and digests
// it. The segment's requests derive from (seed, salt); a salt names one
// segment of a run, so the same seed always sends the same requests in
// it. The bodies of the first keep requests are retained for the
// correctness check; the segment is never shorter than that.
func (s *serveRun) send(l *serveLevel, salt int, d time.Duration, keep int) *segment {
	n := max(1, keep, int(l.rps*d.Seconds()))
	seg := segment{salt: salt, plan: makePlan(s.o.seed, salt, l.rps, n)}
	plan := make([]planned, n)
	for i := range seg.plan {
		plan[i] = seg.plan[i].planned
	}
	seg.start, seg.outs = openLoop(s.live.client, s.live.base, plan, s.o.nproc, func(i int) bool { return i < keep })
	var last time.Time
	for i, out := range seg.outs {
		s.digest(l, &seg, i, out)
		if out.done.After(last) {
			last = out.done
		}
	}
	l.busy += last.Sub(seg.start)
	l.sent += n
	s.rep.attempted += n
	l.segs = append(l.segs, seg)
	return &l.segs[len(l.segs)-1]
}

// digest folds one outcome into the level's statistics.
func (s *serveRun) digest(l *serveLevel, seg *segment, i int, out outcome) {
	req := seg.plan[i]
	due := seg.start.Add(req.due)
	switch {
	case out.err != nil:
		l.failed++
		s.rep.fail("%s request %d: %v", l.name, i, out.err)
		return
	case out.status == http.StatusTooManyRequests || out.status == http.StatusServiceUnavailable:
		l.rejected++
		l.failed++
		s.rep.failed++
		return
	case out.status != http.StatusOK:
		l.failed++
		s.rep.fail("%s request %d: HTTP %d: %s", l.name, i, out.status, out.body)
		return
	}
	l.ok++
	l.runs += len(req.seeds)
	lat := out.done.Sub(due)
	l.latMs.add(ms(lat))
	l.lagMs.add(ms(out.sent.Sub(due)))
	unit := int64(seg.salt)<<32 | int64(i)
	root := s.tr.record("loadgen.request", 0, unit, due, out.done)
	s.tr.record("loadgen.lag", root, unit, due, out.sent)
	if req.path != "/v1/run" {
		return
	}
	stages := headerStages(out.header)
	if len(stages) == 0 && out.body != nil {
		var doc bodyDoc
		if err := json.Unmarshal(out.body, &doc); err == nil {
			for k, v := range doc.Timing {
				stages[strings.TrimSuffix(k, "_ns")] = v
			}
		}
	}
	var total int64
	names := make([]string, 0, len(stages))
	for k := range stages {
		names = append(names, k)
	}
	sort.Strings(names)
	hid := s.tr.record("http.request", root, unit, out.sent, out.done)
	at := out.sent
	for _, k := range names {
		v := stages[k]
		total += v
		if st, ok := l.stageUs[k]; ok {
			st.add(float64(v) / 1e3)
		}
		// Stage spans carry the server's durations; their placement inside
		// the request is nominal.
		s.tr.record("serve."+k, hid, unit, at, at.Add(time.Duration(v)))
		at = at.Add(time.Duration(v))
	}
	l.singleLatMs.add(ms(lat))
	l.outsideUs.add(us(out.done.Sub(out.sent)) - float64(total)/1e3)
}

// reportLevel sets the per-layer metrics of one level.
func (s *serveRun) reportLevel(l *serveLevel) {
	for _, st := range serveStages {
		smp := *l.stageUs[st]
		s.rep.set("serve."+st+"_us.p50."+l.name, "us", smp.p50())
		if st != "serialize" {
			s.rep.set("serve."+st+"_us.p99."+l.name, "us", smp.p99())
		}
	}
	s.rep.set("serve.outside_us.p50."+l.name, "us", l.outsideUs.p50())
	s.rep.set("serve.outside_us.p99."+l.name, "us", l.outsideUs.p99())
	s.rep.set("serve.rejected_frac."+l.name, "fraction", float64(l.rejected)/float64(l.sent))
	s.rep.set("loadgen.lag_ms.p99."+l.name, "ms", l.lagMs.p99())
	// The stage p50s, the outside share and the generator's lag should add
	// up to the client p50 of single runs timed from their due instants.
	sum := l.outsideUs.p50() + 1000*l.lagMs.p50()
	for _, st := range l.stageUs {
		sum += st.p50()
	}
	s.rep.notef("reconcile %s: stage p50s + outside p50 + lag p50 = %.1f us; client p50 (single runs, from due) = %.1f us",
		l.name, sum, 1000*l.singleLatMs.p50())
}

// noteLevel states a level's sample counts and generator lag beside its
// latency figures.
func (s *serveRun) noteLevel(l *serveLevel) {
	s.rep.notef("level %s at %.0f req/s: %d requests in %d rounds, %d ok, %d rejected; p50 %.3f ms, p99 %.3f ms over %d samples (%d beyond p99); loadgen lag p99 %.3f ms",
		l.name, l.rps, l.sent, len(l.segs), l.ok, l.rejected, l.latMs.p50(), l.latMs.p99(), len(l.latMs), len(l.latMs)/100, l.lagMs.p99())
}

// start starts a fresh server and warms it with every request shape from
// every connection. It returns the time to the last warm response.
func (s *serveRun) start(round int) (time.Duration, error) {
	t0 := time.Now()
	live, err := startServer(s.o.nproc)
	if err != nil {
		return 0, err
	}
	s.live = live
	var warm []planned
	for c := 0; c < s.o.nproc; c++ {
		for k, m := range serveMix {
			seed := noiseSeed(s.o.seed, setupBase+round*100+c*10+k)
			p := planned{path: "/v1/run", kind: k}
			var body any = runSpec(m, seed)
			if m.sweep > 0 {
				p.path = "/v1/sweep"
				body = serve.SweepSpec{Base: runSpec(m, 0), Count: m.sweep}
			}
			p.body, _ = json.Marshal(body) // plain structs of strings and numbers
			warm = append(warm, p)
		}
	}
	_, outs := openLoop(live.client, live.base, warm, s.o.nproc, func(int) bool { return false })
	for i, out := range outs {
		if out.err != nil || out.status != http.StatusOK {
			return 0, fmt.Errorf("warm-up request %d: status %d: %v", i, out.status, out.err)
		}
	}
	return time.Since(t0), nil
}

// stop stops the live server, if any.
func (s *serveRun) stop() error {
	if s.live == nil {
		return nil
	}
	err := s.live.stop()
	s.live = nil
	return err
}

// ladderSearch binary-searches the fixed rate ladder for the highest rung
// whose client p99 meets the latency limit with no failures and no backlog
// left at the end of the rung. The search starts at the rung of the
// highest fixed load level, which the levels show the host sustains, and
// takes the top rung to fail. A rung fails only when two probes, on two
// servers, fail it: one stall of the shared host must not end the search
// far below the knee.
type ladderSearch struct {
	lo, hi, probes int
	retry          bool // the middle rung failed once and is probed again
}

func rungRate(k int) float64 { return ladderBase * math.Pow(ladderStep, float64(k)) }

// newLadderSearch starts the search at the highest rung not above rps.
func newLadderSearch(rps float64) ladderSearch {
	return ladderSearch{lo: int(math.Log(rps/ladderBase) / math.Log(ladderStep)), hi: ladderTop}
}

func (ls *ladderSearch) done() bool { return ls.hi-ls.lo <= 1 }

// probe sends the middle rung for d and narrows the search.
func (s *serveRun) probe(ls *ladderSearch, d time.Duration) {
	k := (ls.lo + ls.hi) / 2
	ls.probes++
	salt := ladderSalt + k
	if ls.retry {
		salt += ladderTop + 1
	}
	l := newServeLevel(fmt.Sprintf("ladder%d", k), rungRate(k))
	seg := s.send(l, salt, d, 0)
	lastDue := seg.start.Add(seg.plan[len(seg.plan)-1].due)
	backlog := seg.start.Add(l.busy).Sub(lastDue)
	ok := l.failed == 0 && l.latMs.p99() <= latencyLimitMs && backlog <= latencyLimitMs*time.Millisecond
	s.rep.notef("ladder rung %d (%.0f req/s): p99 %.3f ms, lag p99 %.3f ms, backlog %v, failed %d -> pass %v",
		k, rungRate(k), l.latMs.p99(), l.lagMs.p99(), backlog.Round(time.Microsecond), l.failed, ok)
	switch {
	case ok:
		ls.lo, ls.retry = k, false
	case !ls.retry:
		ls.retry = true
	default:
		ls.hi, ls.retry = k, false
	}
}

// campaign times one campaign of 16·nproc sweeps of 64 runs each, sent
// over the client's nproc connections on the otherwise idle server. The
// sweeps in flight together fill the default admission depth (64·workers).
func (s *serveRun) campaign() (time.Duration, bool) {
	body, _ := json.Marshal(serve.SweepSpec{Base: runSpec(serveMix[0], 0), Count: 64}) // plain structs
	plan := make([]planned, 16*s.o.nproc)
	for i := range plan {
		plan[i] = planned{path: "/v1/sweep", body: body}
	}
	t0 := time.Now()
	_, outs := openLoop(s.live.client, s.live.base, plan, s.o.nproc, func(int) bool { return false })
	d := time.Since(t0)
	s.rep.attempted += len(outs)
	ok := true
	for _, out := range outs {
		if out.err != nil || out.status != http.StatusOK {
			s.rep.fail("campaign sweep: status %d: %v", out.status, out.err)
			ok = false
		}
	}
	return d, ok
}

func runServe(o options, rep *report, tr *tracer) error {
	s := &serveRun{o: o, rep: rep, tr: tr}
	err := s.measure()
	return errors.Join(err, s.stop())
}

// measure runs serveRounds rounds, each on a fresh server: set-up, a
// segment of every load level, its share of the ladder probes and of the
// campaigns. Pooling rounds keeps one server's scheduling luck from
// setting a run's figures.
func (s *serveRun) measure() error {
	o, rep := s.o, s.rep
	levels := make([]*serveLevel, len(serveRates))
	for i, r := range serveRates {
		levels[i] = newServeLevel(r.name, r.rps)
	}
	base := newServeLevel("mid", serveRates[1].rps)
	var setupS, campaignS sample
	ladder := newLadderSearch(serveRates[len(serveRates)-1].rps)
	tr := s.tr
	for round := 0; round < serveRounds; round++ {
		d, err := s.start(round)
		if err != nil {
			return err
		}
		setupS.add(d.Seconds())
		if o.trace {
			s.tr = nil // the overhead base runs untraced
			s.send(base, round*8+len(levels), o.budget(0.2/serveRounds), 0)
			s.tr = tr
		}
		for i, l := range levels {
			keep := 0
			if i == 0 {
				keep = serveFixedPerRound
			}
			s.send(l, round*8+i, o.budget(levelShare/serveRounds), keep)
			s.speed.measure(o.nproc)
		}
		if !o.trace {
			// One probe per server, so a retried rung runs on another one.
			if !ladder.done() {
				s.probe(&ladder, o.budget(rungShare))
			}
			for c := 0; c < campaignsPerRound; c++ {
				if d, ok := s.campaign(); ok {
					campaignS.add(d.Seconds())
				}
				s.speed.measure(o.nproc)
			}
		}
		if err := s.stop(); err != nil {
			return err
		}
	}
	for _, l := range levels {
		s.noteLevel(l)
	}
	if !o.trace {
		high := levels[len(levels)-1]
		rep.set("setup_s", "s", setupS.p50())
		rep.set("runs_per_s", "runs/s", float64(high.runs)/high.busy.Seconds())
		// A mean, not a median: a server instance runs its campaigns in one
		// of two speeds, and a median over a few servers jumps between them.
		rep.set("campaign_s", "s", campaignS.mean())
		for _, l := range levels {
			rep.set("lat_p50_ms."+l.name, "ms", l.latMs.p50())
			rep.set("lat_p99_ms."+l.name, "ms", l.latMs.p99())
		}
		rep.set("max_rate_rps", "1/s", rungRate(ladder.lo))
		// Served runs per second follow the offered rate, not the host's speed.
		s.speed.normalize(rep, "setup_s", "campaign_s", "lat_p50_ms.low", "lat_p50_ms.mid", "lat_p50_ms.high")
		rep.notef("max_rate_rps from %d ladder probes of %v each, limit p99 <= %d ms", ladder.probes, o.budget(rungShare), latencyLimitMs)
		rep.notef("%d rounds, each on a fresh server; setup_s is the median of %d samples, campaign_s the mean of %d",
			serveRounds, len(setupS), len(campaignS))
		s.simulated(levels[0])
	} else {
		for _, l := range levels {
			s.reportLevel(l)
		}
		rep.set("trace_overhead", "ratio", levels[1].latMs.p50()/base.latMs.p50())
		zeroUnexercised(rep, batchLayerMetrics, forkLayerMetrics)
	}
	s.check(levels[0])
	return nil
}

// fixedOutcomes calls f for every retained request of level l: the
// leading requests of each round, the same for a seed.
func fixedOutcomes(l *serveLevel, f func(req request, out outcome, i int)) {
	for _, seg := range l.segs {
		for i := 0; i < min(serveFixedPerRound, len(seg.outs)); i++ {
			f(seg.plan[i], seg.outs[i], i)
		}
	}
}

// simulated reports miss_ratio and precision_mean over the summaries of
// the retained low-level requests, which are the same for a seed.
func (s *serveRun) simulated(l *serveLevel) {
	var missed, resolved uint64
	var prec float64
	var runs int
	fixedOutcomes(l, func(req request, out outcome, _ int) {
		if out.status != http.StatusOK || serveMix[req.kind].colfmt {
			return
		}
		var doc bodyDoc
		if err := json.Unmarshal(out.body, &doc); err != nil {
			return // the correctness check counts it
		}
		docs := doc.Runs
		if len(docs) == 0 {
			docs = []runDoc{doc.runDoc}
		}
		for _, d := range docs {
			for _, c := range d.Summary.Counters {
				missed += c.Missed
				resolved += c.Missed + c.Completed
			}
			prec += d.Summary.TotalPrecision
			runs++
		}
	})
	s.rep.set("miss_ratio", "fraction", float64(missed)/float64(resolved))
	s.rep.set("precision_mean", "ratio", prec/float64(runs))
	s.rep.notef("miss_ratio and precision_mean over %d served runs, the first %d low-level requests of each round (%d missed of %d resolved); precision is the final total precision",
		runs, serveFixedPerRound, missed, resolved)
}

// check compares the retained low-level responses with fresh core.Run
// results of the same inputs: colfmt bodies byte for byte against
// colfmt.AppendRun, summaries field for field.
func (s *serveRun) check(l *serveLevel) {
	systems := map[string]*taskmodel.System{
		"testbed":    workload.Testbed(),
		"simulation": workload.Simulation(),
		"synthetic":  workload.Synthetic(substrateSystemSeed, 8, 32),
	}
	checked := 0
	fixedOutcomes(l, func(req request, out outcome, i int) {
		if out.status != http.StatusOK {
			return
		}
		m := serveMix[req.kind]
		fresh := func(seed int64) (*core.RunResult, error) {
			return core.Run(core.RunConfig{
				System:     systems[m.wl.Name],
				Exec:       exectime.NewNoise(exectime.Nominal{}, noiseSpread, seed),
				Middleware: core.Config{Mode: m.mode},
				Duration:   simtime.FromSeconds(m.durS),
			})
		}
		what := fmt.Sprintf("serve request %d (%s)", i, m.name)
		if m.colfmt {
			r, err := fresh(req.seeds[0])
			if err != nil {
				s.rep.fail("%s: fresh core.Run: %v", what, err)
				return
			}
			if !bytes.Equal(out.body, colfmt.AppendRun(colfmt.AppendMagic(nil), r.Trace)) {
				s.rep.mismatchf("%s: colfmt body differs from colfmt.AppendRun", what)
			}
			checked++
			return
		}
		var doc bodyDoc
		if err := json.Unmarshal(out.body, &doc); err != nil {
			s.rep.mismatchf("%s: undecodable body: %v", what, err)
			return
		}
		docs := doc.Runs
		if m.sweep == 0 {
			docs = []runDoc{doc.runDoc}
		}
		if len(docs) != len(req.seeds) {
			s.rep.mismatchf("%s: %d runs in the body, want %d", what, len(docs), len(req.seeds))
			return
		}
		for j, d := range docs {
			r, err := fresh(req.seeds[j])
			if err != nil {
				s.rep.fail("%s: fresh core.Run: %v", what, err)
				continue
			}
			if msg := summaryDiff(d.Summary, r); msg != "" {
				s.rep.mismatchf("%s run %d: %s", what, j, msg)
			}
			checked++
		}
	})
	s.rep.notef("correctness: %d served runs compared with a fresh core.Run", checked)
}

// summaryDiff compares a served summary with a fresh result exactly.
func summaryDiff(got summaryDoc, want *core.RunResult) string {
	if math.Float64bits(got.MissRatio) != math.Float64bits(want.OverallMissRatio()) {
		return fmt.Sprintf("miss_ratio %v, want %v", got.MissRatio, want.OverallMissRatio())
	}
	if math.Float64bits(got.TotalPrecision) != math.Float64bits(want.State.TotalPrecision()) {
		return fmt.Sprintf("total_precision %v, want %v", got.TotalPrecision, want.State.TotalPrecision())
	}
	wantC := make([]counterDoc, len(want.Counters))
	for i, c := range want.Counters {
		wantC[i] = counterDoc{c.Released, c.Completed, c.Missed}
	}
	if !slices.Equal(got.Counters, wantC) {
		return "counters differ"
	}
	return ""
}
