package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/autoe2e/autoe2e/internal/core"
	"github.com/autoe2e/autoe2e/internal/exectime"
	"github.com/autoe2e/autoe2e/internal/trace/colfmt"
)

// libraryConfig builds the core.RunConfig the server is contractually
// bound to execute for spec — the parity pin for the golden tests.
func libraryConfig(t *testing.T, spec *RunSpec) core.RunConfig {
	t.Helper()
	r, err := resolve(spec)
	if err != nil {
		t.Fatalf("resolve(%+v): %v", spec, err)
	}
	var exec exectime.Model = exectime.Nominal{}
	if r.noiseOn {
		exec = exectime.NewNoise(exectime.Nominal{}, r.noise.Spread, r.noise.Seed)
	}
	return core.RunConfig{
		System:     r.sys,
		Exec:       exec,
		Middleware: core.Config{Mode: r.mode},
		Duration:   r.duration,
	}
}

// librarySummary is the canonical summary JSON for spec, computed through
// the library path (core.RunAll).
func librarySummary(t *testing.T, spec *RunSpec) []byte {
	t.Helper()
	res, err := core.RunAll([]core.RunConfig{libraryConfig(t, spec)}, 1)
	if err != nil {
		t.Fatalf("core.RunAll: %v", err)
	}
	r, _ := resolve(spec)
	return appendSummary(nil, r.mode, r.durationS, res[0])
}

// libraryColfmt is the canonical colfmt body for spec (magic + one run).
func libraryColfmt(t *testing.T, spec *RunSpec) []byte {
	t.Helper()
	res, err := core.RunAll([]core.RunConfig{libraryConfig(t, spec)}, 1)
	if err != nil {
		t.Fatalf("core.RunAll: %v", err)
	}
	return colfmt.AppendRun(colfmt.AppendMagic(nil), res[0].Trace)
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, buf.Bytes()
}

// goldenSpecs cover every workload kind, all three modes, and noise
// on/off.
var goldenSpecs = []struct {
	name string
	spec RunSpec
	json string
}{
	{
		name: "testbed autoe2e nominal",
		spec: RunSpec{Workload: WorkloadSpec{Name: "testbed"}, DurationS: 0.2},
		json: `{"workload":{"name":"testbed"},"duration_s":0.2}`,
	},
	{
		name: "testbed eucon noisy",
		spec: RunSpec{Workload: WorkloadSpec{Name: "testbed"}, Mode: "eucon", DurationS: 0.2, Noise: NoiseSpec{Spread: 0.2, Seed: 7}},
		json: `{"workload":{"name":"testbed"},"mode":"eucon","duration_s":0.2,"noise":{"spread":0.2,"seed":7}}`,
	},
	{
		name: "simulation open",
		spec: RunSpec{Workload: WorkloadSpec{Name: "simulation"}, Mode: "open", DurationS: 0.1},
		json: `{"workload":{"name":"simulation"},"mode":"open","duration_s":0.1}`,
	},
	{
		name: "synthetic autoe2e noisy",
		spec: RunSpec{Workload: WorkloadSpec{Name: "synthetic", Seed: 3, ECUs: 4, Tasks: 12}, DurationS: 0.1, Noise: NoiseSpec{Spread: 0.1, Seed: 11}},
		json: `{"workload":{"name":"synthetic","seed":3,"ecus":4,"tasks":12},"duration_s":0.1,"noise":{"spread":0.1,"seed":11}}`,
	},
}

// TestRunGoldenSummary pins the HTTP summary response byte-identical to
// the library path: the "summary" section must equal appendSummary over
// core.RunAll for the same config.
func TestRunGoldenSummary(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	for _, tc := range goldenSpecs {
		t.Run(tc.name, func(t *testing.T) {
			want := librarySummary(t, &tc.spec)
			resp, body := postJSON(t, ts.URL+"/v1/run", tc.json)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d, body %s", resp.StatusCode, body)
			}
			prefix := append([]byte(`{"summary":`), want...)
			if !bytes.HasPrefix(body, prefix) {
				t.Fatalf("summary section diverges from library core.RunAll\n got: %.200s\nwant: %.200s", body, prefix)
			}
			rest := body[len(prefix):]
			if !bytes.HasPrefix(rest, []byte(`,"timing_ns":`)) || !bytes.HasSuffix(rest, []byte("}}")) {
				t.Fatalf("malformed timing tail: %s", rest)
			}
			// The whole body must also be valid JSON with sane timings.
			var parsed struct {
				Summary  json.RawMessage  `json:"summary"`
				TimingNs map[string]int64 `json:"timing_ns"`
			}
			if err := json.Unmarshal(body, &parsed); err != nil {
				t.Fatalf("response is not valid JSON: %v", err)
			}
			for _, k := range []string{"queue_wait_ns", "run_ns", "serialize_ns"} {
				if v, ok := parsed.TimingNs[k]; !ok || v < 0 {
					t.Errorf("timing_ns[%q] = %d, %v", k, v, ok)
				}
			}
		})
	}
}

// TestRunGoldenColfmt pins the colfmt response body byte-identical to the
// library trace: magic + AppendRun of the core.RunAll recorder.
func TestRunGoldenColfmt(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	for _, tc := range goldenSpecs {
		t.Run(tc.name, func(t *testing.T) {
			want := libraryColfmt(t, &tc.spec)
			body := strings.TrimSuffix(tc.json, "}") + `,"trace":"colfmt"}`
			resp, got := postJSON(t, ts.URL+"/v1/run", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d, body %s", resp.StatusCode, got)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
				t.Errorf("Content-Type = %q", ct)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("colfmt body diverges from library trace: got %d bytes, want %d", len(got), len(want))
			}
			if resp.Header.Get("X-Autoe2e-Run-Ns") == "" {
				t.Error("missing X-Autoe2e-Run-Ns timing header")
			}
		})
	}
}

// TestSweepGolden pins a sweep response to the library results for the
// same per-seed configs, in seed order, for both body formats.
func TestSweepGolden(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	seeds := []int64{3, 1, 4, 1, 5}

	var wantCol []byte
	wantCol = colfmt.AppendMagic(wantCol)
	var wantSums [][]byte
	for _, seed := range seeds {
		spec := RunSpec{Workload: WorkloadSpec{Name: "testbed"}, DurationS: 0.1, Noise: NoiseSpec{Spread: 0.15, Seed: seed}}
		res, err := core.RunAll([]core.RunConfig{libraryConfig(t, &spec)}, 1)
		if err != nil {
			t.Fatalf("core.RunAll: %v", err)
		}
		wantCol = colfmt.AppendRun(wantCol, res[0].Trace)
		r, _ := resolve(&spec)
		wantSums = append(wantSums, appendSummary(nil, r.mode, r.durationS, res[0]))
	}

	t.Run("colfmt", func(t *testing.T) {
		resp, got := postJSON(t, ts.URL+"/v1/sweep",
			`{"base":{"workload":{"name":"testbed"},"duration_s":0.1,"noise":{"spread":0.15},"trace":"colfmt"},"seeds":[3,1,4,1,5]}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, body %s", resp.StatusCode, got)
		}
		if !bytes.Equal(got, wantCol) {
			t.Fatalf("sweep colfmt body diverges: got %d bytes, want %d", len(got), len(wantCol))
		}
	})
	t.Run("summary", func(t *testing.T) {
		resp, got := postJSON(t, ts.URL+"/v1/sweep",
			`{"base":{"workload":{"name":"testbed"},"duration_s":0.1,"noise":{"spread":0.15}},"seeds":[3,1,4,1,5]}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, body %s", resp.StatusCode, got)
		}
		for i, want := range wantSums {
			idx := bytes.Index(got, want)
			if idx < 0 {
				t.Fatalf("seed %d summary missing from sweep body", seeds[i])
			}
			got = got[idx+len(want):] // enforce seed order
		}
	})
}

// validationCases are requests the admission gate must refuse with 400.
var validationCases = []struct {
	name, path, body string
}{
	{"bad json", "/v1/run", `{`},
	{"unknown field", "/v1/run", `{"workload":{"name":"testbed"},"duration_s":0.1,"wat":1}`},
	{"unknown workload", "/v1/run", `{"workload":{"name":"nope"},"duration_s":0.1}`},
	{"unknown mode", "/v1/run", `{"workload":{"name":"testbed"},"mode":"nope","duration_s":0.1}`},
	{"zero duration", "/v1/run", `{"workload":{"name":"testbed"}}`},
	{"huge duration", "/v1/run", `{"workload":{"name":"testbed"},"duration_s":1e9}`},
	{"sub-tick duration", "/v1/run", `{"workload":{"name":"testbed"},"duration_s":1e-9}`},
	{"bad spread", "/v1/run", `{"workload":{"name":"testbed"},"duration_s":0.1,"noise":{"spread":1.5}}`},
	{"bad trace", "/v1/run", `{"workload":{"name":"testbed"},"duration_s":0.1,"trace":"nope"}`},
	{"synthetic too big", "/v1/run", `{"workload":{"name":"synthetic","ecus":100,"tasks":10},"duration_s":0.1}`},
	{"sweep both", "/v1/sweep", `{"base":{"workload":{"name":"testbed"},"duration_s":0.1,"noise":{"spread":0.1}},"seeds":[1],"count":2}`},
	{"sweep neither", "/v1/sweep", `{"base":{"workload":{"name":"testbed"},"duration_s":0.1}}`},
	{"sweep no noise", "/v1/sweep", `{"base":{"workload":{"name":"testbed"},"duration_s":0.1},"count":4}`},
	{"sweep huge count", "/v1/sweep", `{"base":{"workload":{"name":"testbed"},"duration_s":0.1,"noise":{"spread":0.1}},"count":1000000000000}`},
}

// TestValidation covers the admission gate's 400s.
func TestValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	for _, tc := range validationCases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+tc.path, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400; body %s", resp.StatusCode, body)
			}
		})
	}
}

// TestShutdownDrain asserts the graceful-shutdown contract: every request
// accepted before Shutdown gets a complete response, none are dropped.
// Single runs cycle through noisy testbed seeds and the four golden shapes
// while a sweep runs alongside, so both workers take work across shapes;
// every body must still match the library path.
func TestShutdownDrain(t *testing.T) {
	s := NewServer(Options{Workers: 2, QueueDepth: 256})
	const n = 64
	specs := make([]RunSpec, n)
	for i := range specs {
		if i%2 == 0 {
			specs[i] = RunSpec{Workload: WorkloadSpec{Name: "testbed"}, DurationS: 0.05, Noise: NoiseSpec{Spread: 0.1, Seed: int64(i)}}
		} else {
			specs[i] = goldenSpecs[(i/2)%len(goldenSpecs)].spec
		}
	}
	sweepBase := RunSpec{Workload: WorkloadSpec{Name: "simulation"}, Mode: "eucon", DurationS: 0.05, Noise: NoiseSpec{Spread: 0.1}}
	seeds := []int64{2, 7, 1, 8}
	const sweepBody = `{"base":{"workload":{"name":"simulation"},"mode":"eucon","duration_s":0.05,"noise":{"spread":0.1}},"seeds":[2,7,1,8]}`

	var wg sync.WaitGroup
	statuses := make([]int, n)
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp Response
			s.Execute(&specs[i], &resp)
			statuses[i] = resp.Status
			bodies[i] = append([]byte(nil), resp.Body...)
		}(i)
	}
	sweep := httptest.NewRecorder()
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Handler().ServeHTTP(sweep, httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(sweepBody)))
	}()
	// Shutdown only after every request has been admitted: accepted is
	// bumped under the admission read-lock, and Shutdown's write-lock
	// serializes against in-flight enqueues.
	for s.metrics.Accepted() < uint64(n+len(seeds)) {
		time.Sleep(100 * time.Microsecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d (%s) — accepted request dropped or failed", i, statuses[i], bodies[i])
		}
		want := append([]byte(`{"summary":`), librarySummary(t, &specs[i])...)
		if !bytes.HasPrefix(bodies[i], want) {
			t.Fatalf("request %d: body diverges from library core.RunAll\n got: %.200s\nwant: %.200s", i, bodies[i], want)
		}
	}
	if sweep.Code != http.StatusOK {
		t.Fatalf("sweep: status %d (%s)", sweep.Code, sweep.Body.Bytes())
	}
	got := sweep.Body.Bytes()
	for _, seed := range seeds {
		sp := sweepBase
		sp.Noise.Seed = seed
		want := librarySummary(t, &sp)
		idx := bytes.Index(got, want)
		if idx < 0 {
			t.Fatalf("sweep: seed %d summary missing or out of order", seed)
		}
		got = got[idx+len(want):]
	}
	if got, want := s.metrics.Completed(), uint64(n+len(seeds)); got != want {
		t.Fatalf("completed = %d, want %d", got, want)
	}
	// Post-drain requests are refused with the draining status.
	var resp Response
	s.Execute(&specs[0], &resp)
	if resp.Status != http.StatusServiceUnavailable {
		t.Fatalf("post-drain status = %d, want 503", resp.Status)
	}
}

// enqueueHooked admits one run of spec whose worker calls hook just before
// the run. The caller waits on the returned pending's done channel.
func enqueueHooked(t *testing.T, s *Server, spec *RunSpec, hook func()) *pending {
	t.Helper()
	res, err := resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	res.hook = hook
	p := s.getPending()
	p.res = res
	p.standalone = true
	if err := s.enqueue(p); err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	return p
}

// TestBackpressure asserts the bounded-queue contract under overload:
// admission never exceeds QueueDepth, the overflow is refused with 429 +
// Retry-After (never buffered), and every accepted request completes.
// The single worker is parked in a test hook so queue occupancy is
// deterministic, not a race against simulation wall time.
func TestBackpressure(t *testing.T) {
	s := NewServer(Options{Workers: 1, QueueDepth: 2})
	defer s.Close()

	gate := make(chan struct{})
	spec := RunSpec{Workload: WorkloadSpec{Name: "testbed"}, DurationS: 0.01}
	hold := enqueueHooked(t, s, &spec, func() { <-gate })
	// Wait for the idle worker to take the hold request and park in its
	// hook: the reservation is released (used back to 0) the moment a
	// worker starts a request.
	for s.metrics.Accepted() < 1 || s.used.Load() != 0 {
		time.Sleep(50 * time.Microsecond)
	}

	// Two fillers take both queue slots. With the only worker parked they
	// stay queued, and QueueDepth still counts them.
	var bg sync.WaitGroup
	launch := func(wantOK bool) {
		bg.Add(1)
		go func() {
			defer bg.Done()
			var resp Response
			sp := spec
			s.Execute(&sp, &resp)
			if wantOK && resp.Status != http.StatusOK {
				t.Errorf("status = %d, want 200: %s", resp.Status, resp.Body)
			}
			if resp.Status == http.StatusTooManyRequests &&
				!bytes.Contains(resp.Body, []byte(`"retry_after_s":`)) {
				t.Errorf("429 body lacks retry_after_s: %s", resp.Body)
			}
		}()
	}
	launch(true)
	launch(true)
	deadline := time.Now().Add(5 * time.Second)
	for s.metrics.Accepted() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("fillers never admitted")
		}
		time.Sleep(50 * time.Microsecond)
	}

	// Overload: the queue is full, so all four more requests must get an
	// immediate 429 — bounded memory, no unbounded buffering, no timeouts.
	for i := 0; i < 4; i++ {
		launch(false)
	}
	for s.metrics.Rejected() < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("rejected = %d after overload, want 4", s.metrics.Rejected())
		}
		time.Sleep(50 * time.Microsecond)
	}
	if acc, rej := s.metrics.Accepted(), s.metrics.Rejected(); acc != 3 || rej != 4 {
		t.Fatalf("accepted = %d, rejected = %d; want 3 and 4", acc, rej)
	}

	close(gate)
	<-hold.done
	if hold.status != http.StatusOK {
		t.Fatalf("hold status = %d: %s", hold.status, hold.buf)
	}
	s.putPending(hold)
	bg.Wait()
	if acc, comp := s.metrics.Accepted(), s.metrics.Completed(); acc != comp {
		t.Fatalf("accepted %d != completed %d after drain", acc, comp)
	}
}

// TestWorkerPanicIsolated asserts that a panic inside a run answers that
// request with a 500 and a message, throws away the worker's session for
// the shape, and leaves the worker serving byte-identical results.
func TestWorkerPanicIsolated(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewServer(Options{Workers: 1})
	spec := goldenSpecs[0].spec
	want := append([]byte(`{"summary":`), librarySummary(t, &spec)...)
	var resp Response
	s.Execute(&spec, &resp) // warms the worker's session for the shape
	if resp.Status != http.StatusOK {
		t.Fatalf("warm status = %d: %s", resp.Status, resp.Body)
	}

	p := enqueueHooked(t, s, &spec, func() { panic("boom") })
	<-p.done
	if p.status != http.StatusInternalServerError || string(p.buf) != `{"error":"run panicked: boom"}` {
		t.Fatalf("panicking run answered %d %s, want 500 with the panic message", p.status, p.buf)
	}
	// The worker drops the session before it signals done.
	if _, ok := s.sessions[0][p.res.shape]; ok {
		t.Fatal("the session a run panicked on is still cached")
	}
	s.putPending(p)

	s.Execute(&spec, &resp)
	if resp.Status != http.StatusOK || !bytes.HasPrefix(resp.Body, want) {
		t.Fatalf("after the panic: status %d, body %.200s; want 200 and %.200s", resp.Status, resp.Body, want)
	}
	if acc, comp := s.metrics.Accepted(), s.metrics.Completed(); acc != comp {
		t.Fatalf("accepted %d != completed %d", acc, comp)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d after Close, %d before NewServer", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCachesBounded asserts that client-chosen workloads cannot grow the
// interned-system cache or a worker's session cache past their caps, and
// that eviction only costs cold runs: responses stay byte-identical.
func TestCachesBounded(t *testing.T) {
	s := NewServer(Options{Workers: 1})
	var resp Response
	for seed := int64(1); seed <= maxSystems+maxWorkerSessions; seed++ {
		spec := RunSpec{Workload: WorkloadSpec{Name: "synthetic", Seed: seed, ECUs: 2, Tasks: 3}, DurationS: 0.02}
		s.Execute(&spec, &resp)
		want := append([]byte(`{"summary":`), librarySummary(t, &spec)...)
		if resp.Status != http.StatusOK || !bytes.HasPrefix(resp.Body, want) {
			t.Fatalf("seed %d: status %d, body %.200s; want 200 and %.200s", seed, resp.Status, resp.Body, want)
		}
		systemCache.mu.Lock()
		n := len(systemCache.m)
		systemCache.mu.Unlock()
		if n > maxSystems {
			t.Fatalf("seed %d: %d interned systems, cap %d", seed, n, maxSystems)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(s.sessions[0]); n > maxWorkerSessions {
		t.Fatalf("worker holds %d sessions, cap %d", n, maxWorkerSessions)
	}
}

// TestExecuteWarmAllocs gates the steady-state per-request allocation
// count of the full admission → queue → session → serialize pipeline, the
// serve analogue of the hot-path alloc gates in bench_test.go.
func TestExecuteWarmAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := NewServer(Options{Workers: 1})
	defer s.Close()
	spec := RunSpec{Workload: WorkloadSpec{Name: "testbed"}, DurationS: 0.05, Noise: NoiseSpec{Spread: 0.1, Seed: 1}}
	var resp Response
	for i := 0; i < 8; i++ { // warm the session, pools, and buffers
		spec.Noise.Seed = int64(i)
		s.Execute(&spec, &resp)
		if resp.Status != http.StatusOK {
			t.Fatalf("warmup status = %d: %s", resp.Status, resp.Body)
		}
	}
	avg := testing.AllocsPerRun(50, func() {
		s.Execute(&spec, &resp)
	})
	// The run itself is the session's zero-alloc steady state; the serve
	// layer adds only pooled/reused structures. A small slack absorbs
	// sync.Pool victim-cache misses.
	if avg > 3 {
		t.Fatalf("Execute steady state allocates %.1f/op, want <= 3", avg)
	}
}

// TestMetricsEndpoint sanity-checks the aggregate CSV shape.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	postJSON(t, ts.URL+"/v1/run", `{"workload":{"name":"testbed"},"duration_s":0.05}`)
	resp, body := postJSON(t, ts.URL+"/v1/run", `{"workload":{"name":"testbed"},"duration_s":0.05}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status = %d", resp.StatusCode)
	}
	mresp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	csv := buf.String()
	for _, want := range []string{
		"stage,count,mean_ns,p50_ns,p95_ns,p99_ns,max_ns",
		"queue_wait,", "run,", "serialize,", "total,",
		"counter,value", "accepted,", "rejected_429,", "completed,",
	} {
		if !strings.Contains(csv, want) {
			t.Errorf("metrics CSV missing %q:\n%s", want, csv)
		}
	}
	_ = body
}

// TestHistogram pins the log-linear histogram's percentile math.
func TestHistogram(t *testing.T) {
	var h histogram
	for v := int64(1); v <= 1000; v++ {
		h.observe(v)
	}
	if got := h.count.Load(); got != 1000 {
		t.Fatalf("count = %d", got)
	}
	// Lower-bound percentiles: within one bucket (12.5% relative) below
	// the true quantile.
	for _, tc := range []struct{ p, lo, hi float64 }{
		{0.50, 400, 501}, {0.95, 800, 951}, {0.99, 850, 991},
	} {
		got := float64(h.percentile(tc.p))
		if got < tc.lo || got > tc.hi {
			t.Errorf("p%.0f = %v, want in [%v, %v]", tc.p*100, got, tc.lo, tc.hi)
		}
	}
	if got := h.max.Load(); got != 1000 {
		t.Errorf("max = %d", got)
	}
	if m := h.mean(); m < 500 || m > 501 {
		t.Errorf("mean = %v", m)
	}
	if got := bucketLow(bucketOf(12345)); got > 12345 || 12345-got > 12345/8 {
		t.Errorf("bucketLow(bucketOf(12345)) = %d", got)
	}
}

// Fuzz limits: inputs that would simulate longer in total, or on a larger
// task set, are skipped so each input stays a few milliseconds of work.
const (
	fuzzMaxSimS  = 0.2
	fuzzMaxTasks = 16
)

// fuzzCost decodes body the way the handler does and reports the total
// simulated seconds and the task count it would run; ok is false when the
// request would be refused before running.
func fuzzCost(sweep bool, body []byte) (simS float64, tasks int, ok bool) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var run RunSpec
	runs := 1
	if sweep {
		var sw SweepSpec
		if dec.Decode(&sw) != nil {
			return 0, 0, false
		}
		seeds, err := sweepSeeds(&sw)
		if err != nil {
			return 0, 0, false
		}
		run, runs = sw.Base, len(seeds)
	} else if dec.Decode(&run) != nil {
		return 0, 0, false
	}
	r, err := resolve(&run)
	if err != nil {
		return 0, 0, false
	}
	return float64(runs) * r.durationS, len(r.sys.Tasks), true
}

// FuzzServeRequest posts arbitrary bodies to /v1/run and /v1/sweep on a
// one-worker server. No input may panic the process, and every answer other
// than 200 must be a refusal (4xx, or 503) with a JSON error message.
func FuzzServeRequest(f *testing.F) {
	for _, tc := range goldenSpecs {
		f.Add(false, []byte(tc.json))
	}
	for _, tc := range validationCases {
		f.Add(tc.path == "/v1/sweep", []byte(tc.body))
	}
	f.Add(true, []byte(`{"base":{"workload":{"name":"testbed"},"duration_s":0.02,"noise":{"spread":0.15},"trace":"colfmt"},"seeds":[3,1,4]}`))
	s := NewServer(Options{Workers: 1})
	f.Cleanup(func() { s.Close() })
	h := s.Handler()
	f.Fuzz(func(t *testing.T, sweep bool, body []byte) {
		if simS, tasks, ok := fuzzCost(sweep, body); ok && (simS > fuzzMaxSimS || tasks > fuzzMaxTasks) {
			t.Skip("too much simulation for one fuzz input")
		}
		path := "/v1/run"
		if sweep {
			path = "/v1/sweep"
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		code := rec.Code
		if code == http.StatusOK {
			return
		}
		if code/100 != 4 && code != http.StatusServiceUnavailable {
			t.Fatalf("status %d: %s", code, rec.Body.Bytes())
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Fatalf("status %d body %q is not a JSON error with a message", code, rec.Body.Bytes())
		}
	})
}
