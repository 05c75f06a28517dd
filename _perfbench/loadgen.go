package main

import (
	"bytes"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// planned is one request of an open-loop schedule.
type planned struct {
	due  time.Duration // offset from the schedule start
	path string
	body []byte
	kind int
}

// outcome is what the client observed for one planned request.
type outcome struct {
	sent, done time.Time
	status     int
	body       []byte // kept only for requests the correctness check samples
	header     http.Header
	err        error
}

// openLoop sends every planned request at its due time over at most conns
// keep-alive connections and waits for all of them. It never drops a send:
// a request whose connection is still busy at its due time goes out late,
// and the lateness is part of its latency, which is timed from the due
// instant. keep selects the requests whose bodies are retained.
func openLoop(client *http.Client, base string, plan []planned, conns int, keep func(i int) bool) (time.Time, []outcome) {
	outs := make([]outcome, len(plan))
	// The lead gives every sender time to start before the first due time.
	start := time.Now().Add(5 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(plan) {
					return
				}
				sleepUntil(start.Add(plan[i].due))
				outs[i] = send(client, base, plan[i], keep(i))
			}
		}()
	}
	wg.Wait()
	return start, outs
}

// send issues one request and reads its whole response.
func send(client *http.Client, base string, p planned, keep bool) outcome {
	o := outcome{sent: time.Now()}
	resp, err := client.Post(base+p.path, "application/json", bytes.NewReader(p.body))
	if err != nil {
		o.err = err
		o.done = time.Now()
		return o
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.done = time.Now()
	o.status = resp.StatusCode
	o.err = err
	o.header = resp.Header
	// JSON bodies carry the stage timings and the run summaries.
	if keep || resp.Header.Get("Content-Type") == "application/json" {
		o.body = body
	}
	return o
}

// newClient returns a client that holds at most conns keep-alive
// connections to one host.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// headerStages reads the server's stage timings from whatever
// X-Autoe2e-<Stage>-Ns headers are present, keyed by snake-case stage.
func headerStages(h http.Header) map[string]int64 {
	out := map[string]int64{}
	for k, v := range h {
		if !strings.HasPrefix(k, "X-Autoe2e-") || !strings.HasSuffix(k, "-Ns") || len(v) == 0 {
			continue
		}
		name := strings.ToLower(strings.TrimSuffix(strings.TrimPrefix(k, "X-Autoe2e-"), "-Ns"))
		if n, err := strconv.ParseInt(v[0], 10, 64); err == nil {
			out[strings.ReplaceAll(name, "-", "_")] = n
		}
	}
	return out
}
