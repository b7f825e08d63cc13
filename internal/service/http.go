package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"nearspan/internal/delta"
	"nearspan/internal/graph"
	"nearspan/internal/protocols"
)

// Handler returns the daemon's HTTP surface:
//
//	POST /v1/jobs             submit a job (JSON spec, or a raw edge
//	                          list with parameters in the query string);
//	                          202 with the job id, 429 queue full,
//	                          503 draining, 400 bad spec, 413 oversized
//	                          body. With ?wait=1
//	                          the response blocks until the job is
//	                          terminal and carries its full document
//	                          (failed jobs answer with their structured
//	                          status — 422 budget-exhausted, 408
//	                          timeout, ...).
//	GET  /v1/jobs             list all jobs (summaries).
//	GET  /v1/jobs/{id}        one job document.
//	DELETE /v1/jobs/{id}      request cancellation.
//	GET  /v1/jobs/{id}/events stream the per-step metrics as NDJSON
//	                          (or SSE with Accept: text/event-stream):
//	                          full replay, then live until terminal,
//	                          closing with a summary record.
//	GET  /v1/jobs/{id}/query  answer one distance query (?u=&v=) from the
//	                          job's spanner; 404 until the job is done,
//	                          400 on bad or out-of-range vertices. With
//	                          ?path=1 the answer also carries one exact
//	                          shortest path in the spanner.
//	POST /v1/jobs/{id}/query  batch queries: NDJSON lines {"u":..,"v":..}
//	                          in, NDJSON answers out, grouped by source
//	                          internally so hot sources share one BFS.
//	PATCH /v1/jobs/{id}/edges apply an edge delta: NDJSON lines
//	                          {"op":"insert"|"delete","u":..,"v":..}.
//	                          The spanner is rebuilt incrementally
//	                          (bit-identical to a from-scratch build of
//	                          the patched graph) and the query pool is
//	                          swapped atomically; 200 with the updated
//	                          job document, 404 until the job is done,
//	                          409 when the delta disagrees with the
//	                          graph, 503 while draining.
//	GET  /healthz             200 ok, 503 once draining (liveness: the
//	                          process is up and not shutting down).
//	GET  /readyz              readiness: 503 "recovering" until boot-time
//	                          journal replay completes, 503 "draining"
//	                          during shutdown, else 200 "ready". Load
//	                          balancers gate traffic on this, not
//	                          /healthz — a recovering daemon is alive
//	                          but not yet serving its restored jobs.
//	GET  /metrics             Prometheus text exposition.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/query", s.handleQuery)
	mux.HandleFunc("POST /v1/jobs/{id}/query", s.handleQueryBatch)
	mux.HandleFunc("PATCH /v1/jobs/{id}/edges", s.handleEdgesPatch)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

// maxBodyBytes bounds submission bodies; larger uploads are rejected
// with 413 rather than silently truncated.
const maxBodyBytes = 64 << 20

// parseSubmission decodes a submission: a JSON JobSpec, or — for any
// non-JSON content type — a raw edge-list body with the spanner
// parameters in the query string (the curl-friendly upload path). Every
// spec it accepts survives a JSON round trip, which the journal relies
// on: query floats must be finite, and the edge-list body and query text
// valid UTF-8.
func parseSubmission(w http.ResponseWriter, r *http.Request) (JobSpec, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		return JobSpec{}, fmt.Errorf("read body: %w", err)
	}
	// JSON when declared as such — or when the content type is curl's
	// default form encoding (plain `curl -d '{...}'`) and the body looks
	// like JSON. Everything else is an edge-list upload.
	ct := r.Header.Get("Content-Type")
	isJSON := strings.HasPrefix(ct, "application/json") || ct == ""
	if !isJSON && strings.HasPrefix(ct, "application/x-www-form-urlencoded") {
		trimmed := strings.TrimLeft(string(body), " \t\r\n")
		isJSON = strings.HasPrefix(trimmed, "{")
	}
	if isJSON {
		var spec JobSpec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return JobSpec{}, fmt.Errorf("decode job spec: %w", err)
		}
		return spec, nil
	}
	q := r.URL.Query()
	spec := JobSpec{
		Name:  q.Get("name"),
		Graph: GraphSpec{Type: "edgelist", Edges: string(body)},
		Mode:  q.Get("mode"),
	}
	if !utf8.ValidString(spec.Name) || !utf8.ValidString(spec.Mode) || !utf8.Valid(body) {
		return JobSpec{}, errors.New("edge-list submission: body, name and mode must be valid UTF-8")
	}
	parse := func(key string, dst *float64) error {
		if v := q.Get(key); v != "" {
			f, err := strconv.ParseFloat(v, 64)
			if err == nil && (math.IsNaN(f) || math.IsInf(f, 0)) {
				err = errors.New("not a finite number")
			}
			if err != nil {
				return fmt.Errorf("query %s: %w", key, err)
			}
			*dst = f
		}
		return nil
	}
	parseInt := func(key string, dst *int) error {
		if v := q.Get(key); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("query %s: %w", key, err)
			}
			*dst = n
		}
		return nil
	}
	if err := errors.Join(
		parse("eps", &spec.Eps),
		parse("target_eps_prime", &spec.TargetEpsPrime),
		parse("rho", &spec.Rho),
		parseInt("kappa", &spec.Kappa),
		parseInt("max_rounds", &spec.MaxRounds),
	); err != nil {
		return JobSpec{}, err
	}
	if v := q.Get("timeout_ms"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return JobSpec{}, fmt.Errorf("query timeout_ms: %w", err)
		}
		spec.TimeoutMS = ms
	}
	return spec, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := parseSubmission(w, r)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, apiError{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	job, err := s.Submit(spec)
	if err != nil {
		var bad *BadRequestError
		switch {
		case errors.As(err, &bad):
			writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, apiError{Error: err.Error()})
		case errors.Is(err, ErrDraining), errors.Is(err, ErrNotReady), errors.Is(err, ErrPersistence):
			writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error()})
		default:
			writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		}
		return
	}

	if r.URL.Query().Get("wait") != "" {
		select {
		case <-job.Done():
			v := job.View()
			status := http.StatusOK
			if v.Error != nil {
				status = v.Error.HTTPStatus
			}
			writeJSON(w, status, v)
		case <-r.Context().Done():
			// The client went away; the job keeps building.
		}
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	writeJSON(w, http.StatusAccepted, job.View())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	views := make([]JobView, len(jobs))
	for i, j := range jobs {
		views[i] = j.View()
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobView `json:"jobs"`
	}{Jobs: views})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job := s.Job(r.PathValue("id"))
	if job == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, job.View())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job := s.Job(r.PathValue("id"))
	if job == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job"})
		return
	}
	job.Cancel()
	writeJSON(w, http.StatusAccepted, job.View())
}

// eventRecord is one /events line: either a step metric or the closing
// summary.
type eventRecord struct {
	Phase           int    `json:"phase"`
	Step            string `json:"step"`
	Rounds          int    `json:"rounds"`
	Messages        int64  `json:"messages"`
	MaxRoundTraffic int64  `json:"max_round_traffic"`
}

type eventFinal struct {
	Done bool    `json:"done"`
	Job  JobView `json:"job"`
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job := s.Job(r.PathValue("id"))
	if job == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job"})
		return
	}
	flusher, _ := w.(http.Flusher)
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	// The subscriber callback runs under the fan-out lock on the build
	// goroutine; it must never block on the client. It appends into a
	// local buffer and nudges the writer loop, which drains at whatever
	// pace the connection sustains — an unbounded buffer, but bounded in
	// practice by the build's step count (a few per phase).
	var (
		bufMu  sync.Mutex
		buf    []protocols.StepMetrics
		notify = make(chan struct{}, 1)
	)
	id := job.fan.Subscribe(func(sm protocols.StepMetrics) {
		bufMu.Lock()
		buf = append(buf, sm)
		bufMu.Unlock()
		select {
		case notify <- struct{}{}:
		default:
		}
	})
	defer job.fan.Unsubscribe(id)

	enc := json.NewEncoder(w)
	writeRecord := func(v any) bool {
		if sse {
			io.WriteString(w, "data: ")
		}
		if err := enc.Encode(v); err != nil {
			return false
		}
		if sse {
			io.WriteString(w, "\n")
		}
		return true
	}
	drain := func() bool {
		bufMu.Lock()
		pending := buf
		buf = nil
		bufMu.Unlock()
		for _, sm := range pending {
			rec := eventRecord{
				Phase:           sm.Phase,
				Step:            sm.Step,
				Rounds:          sm.Rounds,
				Messages:        sm.Messages,
				MaxRoundTraffic: sm.MaxRoundTraffic,
			}
			if !writeRecord(rec) {
				return false
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	for {
		if !drain() {
			return
		}
		select {
		case <-notify:
		case <-job.Done():
			// Flush whatever raced in between the last drain and the
			// terminal state, then close with the summary.
			if !drain() {
				return
			}
			writeRecord(eventFinal{Done: true, Job: job.View()})
			if flusher != nil {
				flusher.Flush()
			}
			return
		case <-r.Context().Done():
			return
		}
	}
}

// queryAnswer is one distance answer. Dist is -1 when the endpoints are
// disconnected in the spanner; alpha and beta restate the job's
// (1+eps', beta) guarantee so a client can bound the true graph
// distance from the spanner answer. Path (with ?path=1) is one exact
// shortest route in the spanner, endpoints inclusive, absent when
// disconnected.
type queryAnswer struct {
	U     int     `json:"u"`
	V     int     `json:"v"`
	Dist  int32   `json:"dist"`
	Alpha float64 `json:"alpha,omitempty"`
	Beta  int32   `json:"beta,omitempty"`
	Path  []int32 `json:"path,omitempty"`
}

// wireDist maps graph.Infinity to the JSON-friendly -1.
func wireDist(d int32) int32 {
	if d == graph.Infinity {
		return -1
	}
	return d
}

// queryJob resolves {id} to a job with a ready query pool, writing the
// error response itself when there isn't one. Jobs that are still
// queued, building, failed, or cancelled answer 404 — the query tier
// exists only once a spanner does.
func (s *Server) queryJob(w http.ResponseWriter, r *http.Request) *Job {
	job := s.Job(r.PathValue("id"))
	if job == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job"})
		return nil
	}
	if job.QueryPool() == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: "job has no spanner to query (not finished)"})
		return nil
	}
	return job
}

func parseVertex(s string, key string, n int) (int, error) {
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("query %s: %v", key, err)
	}
	if v < 0 || v >= n {
		return 0, fmt.Errorf("query %s: vertex %d out of range [0,%d)", key, v, n)
	}
	return v, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	job := s.queryJob(w, r)
	if job == nil {
		return
	}
	n := job.GraphN()
	u, err := parseVertex(r.URL.Query().Get("u"), "u", n)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	v, err := parseVertex(r.URL.Query().Get("v"), "v", n)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	start := time.Now()
	var (
		d    int32
		path []int32
	)
	if r.URL.Query().Get("path") != "" {
		path, d = job.QueryPool().Path(u, v)
	} else {
		d = job.QueryPool().Dist(u, v)
	}
	s.met.observeQuery(1, false, time.Since(start))
	alpha, beta := job.p.Guarantee()
	writeJSON(w, http.StatusOK, queryAnswer{U: u, V: v, Dist: wireDist(d), Alpha: alpha, Beta: beta, Path: path})
}

// handleEdgesPatch applies one NDJSON edge-delta batch to a finished
// job (see Handler's route table for the contract).
func (s *Server) handleEdgesPatch(w http.ResponseWriter, r *http.Request) {
	job := s.Job(r.PathValue("id"))
	if job == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job"})
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	var batch delta.Batch
	for line := 1; ; line++ {
		var op struct {
			Op string `json:"op"`
			U  *int32 `json:"u"`
			V  *int32 `json:"v"`
		}
		if err := dec.Decode(&op); err == io.EOF {
			break
		} else if err != nil {
			writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("op %d: %v", line, err)})
			return
		}
		if op.U == nil || op.V == nil {
			writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("op %d: missing u or v", line)})
			return
		}
		e := delta.Edge{U: *op.U, V: *op.V}
		switch op.Op {
		case "insert":
			batch.Insert = append(batch.Insert, e)
		case "delete":
			batch.Delete = append(batch.Delete, e)
		default:
			writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("op %d: unknown op %q (want insert|delete)", line, op.Op)})
			return
		}
	}
	if batch.Size() == 0 {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "empty delta: no operations"})
		return
	}
	if jerr := s.RebuildJob(job, &batch); jerr != nil {
		writeJSON(w, jerr.HTTPStatus, apiError{Error: jerr.Message})
		return
	}
	writeJSON(w, http.StatusOK, job.View())
}

func (s *Server) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	job := s.queryJob(w, r)
	if job == nil {
		return
	}
	n := job.GraphN()
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	var queries [][2]int
	for line := 1; ; line++ {
		var q struct {
			U *int `json:"u"`
			V *int `json:"v"`
		}
		if err := dec.Decode(&q); err == io.EOF {
			break
		} else if err != nil {
			writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("query %d: %v", line, err)})
			return
		}
		if q.U == nil || q.V == nil {
			writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("query %d: missing u or v", line)})
			return
		}
		if *q.U < 0 || *q.U >= n || *q.V < 0 || *q.V >= n {
			writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("query %d: vertex out of range [0,%d)", line, n)})
			return
		}
		queries = append(queries, [2]int{*q.U, *q.V})
	}
	start := time.Now()
	dists := job.QueryPool().PairsBatch(queries)
	s.met.observeQuery(len(queries), true, time.Since(start))

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	for i, q := range queries {
		enc.Encode(queryAnswer{U: q[0], V: q[1], Dist: wireDist(dists[i])})
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.Draining():
		http.Error(w, "draining", http.StatusServiceUnavailable)
	case !s.Ready():
		http.Error(w, "recovering", http.StatusServiceUnavailable)
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ready\n")
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, s.met.render(s.QueueDepth(), s.Draining(), s.queryPoolStats(), s.persistSnapshotStats()))
}
