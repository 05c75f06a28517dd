package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"github.com/autoe2e/autoe2e/internal/trace/colfmt"
)

// maxBodyBytes bounds a request body; specs are small.
const maxBodyBytes = 1 << 20

// Handler returns the HTTP face of the server:
//
//	POST /v1/run     one RunSpec        -> summary JSON or colfmt trace
//	POST /v1/sweep   one SweepSpec      -> runs array or colfmt stream
//	GET  /v1/metrics aggregate CSV
//	GET  /v1/healthz liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	return mux
}

// writeError emits the uniform JSON error body; retryAfterS > 0 also sets
// the Retry-After header (the backpressure contract's machine-readable
// back-off hint).
func writeError(w http.ResponseWriter, status int, msg string, retryAfterS int) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	if retryAfterS > 0 {
		h.Set("Retry-After", strconv.Itoa(retryAfterS))
	}
	w.WriteHeader(status)
	w.Write(appendError(nil, msg, retryAfterS))
}

// writeAdmissionError maps enqueue failures onto the wire: queue full is
// 429 + Retry-After, draining is 503.
func (s *Server) writeAdmissionError(w http.ResponseWriter, err error) {
	if errors.Is(err, errDraining) {
		writeError(w, http.StatusServiceUnavailable, "server is draining", 1)
		return
	}
	writeError(w, http.StatusTooManyRequests, "admission queue full", s.retryAfterS())
}

// decodeInto strictly decodes the bounded request body into v.
func decodeInto(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// setTimingHeaders mirrors the per-request timing block as headers, for
// bodies (colfmt) that cannot carry it inline.
func setTimingHeaders(h http.Header, t Timing) {
	h.Set("X-Autoe2e-Queue-Wait-Ns", strconv.FormatInt(t.QueueWaitNs, 10))
	h.Set("X-Autoe2e-Run-Ns", strconv.FormatInt(t.RunNs, 10))
	h.Set("X-Autoe2e-Serialize-Ns", strconv.FormatInt(t.SerializeNs, 10))
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var spec RunSpec
	if err := decodeInto(w, r, &spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad run spec: "+err.Error(), 0)
		return
	}
	res, err := resolve(&spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	p := s.getPending()
	p.res = res
	p.standalone = true
	if err := s.enqueue(p); err != nil {
		s.putPending(p)
		s.writeAdmissionError(w, err)
		return
	}
	<-p.done
	h := w.Header()
	if p.status != http.StatusOK {
		h.Set("Content-Type", "application/json")
	} else if p.res.colfmt {
		h.Set("Content-Type", "application/octet-stream")
		setTimingHeaders(h, p.timing)
	} else {
		h.Set("Content-Type", "application/json")
	}
	w.WriteHeader(p.status)
	w.Write(p.buf)
	s.putPending(p)
}

// sweepSeeds validates the sweep cardinality spec and returns the seed
// list (Count is shorthand for 1..Count). The run cap is checked before
// Count sizes anything.
func sweepSeeds(spec *SweepSpec) ([]int64, error) {
	switch {
	case (len(spec.Seeds) > 0) == (spec.Count > 0):
		return nil, errors.New("sweep: set exactly one of seeds and count")
	case len(spec.Seeds) > maxSweepRuns || spec.Count > maxSweepRuns:
		return nil, errors.New("sweep exceeds " + strconv.Itoa(maxSweepRuns) + " runs; split the campaign")
	case len(spec.Seeds) > 0:
		return spec.Seeds, nil
	}
	seeds := make([]int64, spec.Count)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return seeds, nil
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var spec SweepSpec
	if err := decodeInto(w, r, &spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad sweep spec: "+err.Error(), 0)
		return
	}
	seeds, err := sweepSeeds(&spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	if len(seeds) > s.opts.QueueDepth {
		writeError(w, http.StatusBadRequest,
			"sweep exceeds the admission queue depth ("+strconv.Itoa(s.opts.QueueDepth)+"); split the campaign", 0)
		return
	}
	base, err := resolve(&spec.Base)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	if len(seeds) > 1 && !base.noiseOn {
		writeError(w, http.StatusBadRequest,
			"sweep over multiple seeds needs base.noise.spread > 0 (seeds select noise streams)", 0)
		return
	}

	parent := &sweepParent{
		children: make([]*pending, len(seeds)),
		done:     make(chan struct{}, 1),
	}
	for i, seed := range seeds {
		p := s.getPending()
		p.res = base
		p.res.noise.Seed = seed
		p.parent = parent
		parent.children[i] = p
	}
	if err := s.enqueueSweep(parent); err != nil {
		for _, p := range parent.children {
			s.putPending(p)
		}
		s.writeAdmissionError(w, err)
		return
	}
	<-parent.done

	h := w.Header()
	for _, p := range parent.children {
		if p.status != http.StatusOK {
			h.Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusInternalServerError)
			w.Write(appendError(nil, "sweep run failed: "+p.errMsg, 0))
			for _, c := range parent.children {
				s.putPending(c)
			}
			return
		}
	}
	h.Set("X-Autoe2e-Runs", strconv.Itoa(len(parent.children)))
	if base.colfmt {
		h.Set("Content-Type", "application/octet-stream")
		w.WriteHeader(http.StatusOK)
		w.Write(colfmt.AppendMagic(nil))
		for _, p := range parent.children {
			w.Write(p.buf)
		}
	} else {
		h.Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		body := append([]byte(nil), `{"runs":[`...)
		for i, p := range parent.children {
			if i > 0 {
				body = append(body, ',')
			}
			body = append(body, p.buf...)
		}
		body = append(body, `]}`...)
		w.Write(body)
	}
	for _, p := range parent.children {
		s.putPending(p)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/csv")
	w.Write(s.metrics.AppendCSV(nil))
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte(`{"ok":true}`))
}
