package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/par"
)

// rowScratch recycles the handlers' staging and result buffers (request
// rows, transformed rows, membership rows) so steady traffic does not
// allocate a fresh matrix per request. Buffers return to the pool once
// the response is encoded.
var rowScratch par.Arena

// fanOutWork is the size, in rows·K·N, below which a batched transform
// runs on the calling goroutine instead of fanning out over Workers. A
// smaller batch finishes sooner than the hand-off of half of it to a
// second goroutine (on a 2-vCPU VM the cross-over lies between 128 and
// 256 rows of a K=10, N=5 model), and every hand-off wakes a thread whose
// latency swings with host load.
const fanOutWork = 1 << 14

// batchWorkers returns how many goroutines kern.TransformInto should use
// for a batch of rows: workers, or 1 for a batch under fanOutWork. The
// result is bit-identical for every worker count.
func batchWorkers(kern *kernel.CompiledKernel, rows, workers int) int {
	if rows*kern.K()*kern.Dims() < fanOutWork {
		return 1
	}
	return workers
}

// SingleRow is the transform path of a one-row request: the row runs
// through its model's compiled kernel on the calling goroutine. The
// kernel works row by row, so holding rows back to batch them would add
// latency and save no compute; admission control bounds how many rows
// run at once.
type SingleRow struct{}

// TransformRowInto transforms row through entry's model into dst (length
// OutDims). It returns ctx's error without transforming when ctx is
// already done.
func (SingleRow) TransformRowInto(ctx context.Context, entry *Entry, dst, row []float64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	kern, err := entry.Kernel()
	if err != nil {
		return err
	}
	return kern.TransformRowInto(dst, row)
}

// Config sizes the serving subsystem.
type Config struct {
	// ModelDir is the directory of model JSON files the registry serves
	// (`<name>.json` or `<name>@v<version>.json`).
	ModelDir string
	// MaxBatch and MaxWait are ignored: single-row requests run inline,
	// without a batch window.
	MaxBatch int
	MaxWait  time.Duration
	// Workers is the worker-pool width for multi-row transforms (default
	// GOMAXPROCS).
	Workers int
	// RequestTimeout bounds each request's handling time (default 10s).
	RequestTimeout time.Duration
	// MaxBodyBytes caps request body size (default 8 MiB).
	MaxBodyBytes int64
	// MaxRows caps the number of rows per batch request (default 10000).
	MaxRows int

	// MaxInflight bounds concurrently executing transform/probabilities
	// requests (default 8×GOMAXPROCS). Health probes and /metrics are
	// never admission-controlled.
	MaxInflight int
	// MaxQueue bounds requests waiting for an execution slot (default
	// 2×MaxInflight; negative disables queueing — busy ⇒ immediate 429).
	MaxQueue int
	// MaxQueueWait caps how long a request may wait in the admission
	// queue before being shed with 503 (default RequestTimeout/2;
	// negative means waiters are bounded only by their own deadline).
	MaxQueueWait time.Duration
	// MinHeadroom sheds a request immediately when its deadline budget
	// is below this — there would be no time left to serve it (default
	// 0: shed only already-expired requests).
	MinHeadroom time.Duration
	// RetryAfter is the hint sent in the Retry-After header of 429/503
	// shed responses (default 1s).
	RetryAfter time.Duration

	// Float32 compiles serving kernels to the float32 representation:
	// half the parameter and scratch bandwidth, outputs within the
	// tolerance documented in internal/kernel of the float64 path.
	// Training-side APIs are unaffected.
	Float32 bool

	// Rollout enables closed-loop canary serving: transform traffic is
	// split between a pinned stable version and a canary by a
	// deterministic hash of the request key, and the guard loop
	// (RolloutManager.Run) auto-promotes or rolls back. nil disables
	// rollout (every request serves the registry's newest version, the
	// historical behaviour).
	Rollout *RolloutConfig
}

func (c *Config) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxRows <= 0 {
		c.MaxRows = 10000
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 8 * runtime.GOMAXPROCS(0)
	}
	switch {
	case c.MaxQueue == 0:
		c.MaxQueue = 2 * c.MaxInflight
	case c.MaxQueue < 0:
		c.MaxQueue = 0
	}
	switch {
	case c.MaxQueueWait == 0:
		c.MaxQueueWait = c.RequestTimeout / 2
	case c.MaxQueueWait < 0:
		c.MaxQueueWait = 0
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
}

// Server serves fitted iFair models over HTTP: batched transforms,
// cluster-membership probabilities, a registry listing, health probes
// and metrics.
type Server struct {
	cfg      Config
	registry *Registry
	limiter  *admission.Limiter
	metrics  *Metrics
	rollouts *RolloutManager // nil unless cfg.Rollout is set
	syncCRCs crcCache
	ready    atomic.Bool
}

// New builds a Server, performing the initial registry load. A load
// error for individual files is returned but the server still serves
// whatever loaded; only an unreadable directory is fatal.
func New(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	s := &Server{
		cfg:      cfg,
		registry: NewRegistry(cfg.ModelDir),
		metrics:  NewMetrics(),
	}
	if cfg.Float32 {
		s.registry.SetDType(kernel.Float32)
	}
	RegisterProcessMetrics(s.metrics)
	s.limiter = admission.NewLimiter(admission.Config{
		MaxConcurrent: cfg.MaxInflight,
		MaxQueue:      cfg.MaxQueue,
		MaxQueueWait:  cfg.MaxQueueWait,
		MinHeadroom:   cfg.MinHeadroom,
	})
	s.metrics.GaugeFunc("ifair_admission_queue_depth", func() float64 {
		return float64(s.limiter.Stats().QueueDepth)
	})
	s.metrics.GaugeFunc("ifair_admission_inflight", func() float64 {
		return float64(s.limiter.Stats().Inflight)
	})
	s.registry.SetFailureCounter(s.metrics.Counter("registry_reload_failures"))
	if cfg.Rollout != nil {
		s.rollouts = NewRolloutManager(*cfg.Rollout, s.registry, s.metrics, cfg.ModelDir, cfg.Rollout.Logf)
	}
	if _, _, err := s.registry.Reload(); err != nil {
		if s.registry.Len() == 0 {
			return nil, fmt.Errorf("server: initial model load: %w", err)
		}
		s.ready.Store(true)
		return s, fmt.Errorf("server: some model files failed to load: %w", err)
	}
	s.ready.Store(true)
	return s, nil
}

// Registry exposes the model registry (for hot-reload loops and tests).
func (s *Server) Registry() *Registry { return s.registry }

// Metrics exposes the metrics registry (for tests and embedding).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Batcher returns the single-row transform path the transform handler
// runs. It keeps the name of the micro-batcher that path replaced because
// perfbench times it, as batcher.row_us.
func (s *Server) Batcher() SingleRow { return SingleRow{} }

// Limiter exposes the admission controller (for tests and gauges).
func (s *Server) Limiter() *admission.Limiter { return s.limiter }

// Rollouts exposes the canary rollout manager (nil when Config.Rollout
// is unset); cmd/ifair-server runs its guard loop alongside the
// registry watch.
func (s *Server) Rollouts() *RolloutManager { return s.rollouts }

// Close releases the server after the HTTP server has drained. Nothing
// outlives a request today, so it does nothing; callers that embed a
// Server should still call it.
func (s *Server) Close() {}

// Handler returns the fully instrumented HTTP handler. Model inference
// endpoints sit behind admission control; health probes, /metrics and
// the registry listing are never queued or shed, so operators can always
// observe an overloaded server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /healthz", s.instrument("/healthz", false, s.handleHealthz))
	mux.Handle("GET /readyz", s.instrument("/readyz", false, s.handleReadyz))
	mux.Handle("GET /metrics", s.instrument("/metrics", false, s.handleMetrics))
	mux.Handle("GET /v1/models", s.instrument("/v1/models", false, s.handleListModels))
	mux.Handle("GET /v1/sync/manifest", s.instrument("/v1/sync/manifest", false, s.handleSyncManifest))
	mux.Handle("GET /v1/sync/files/{file}", s.instrument("/v1/sync/files", false, s.handleSyncFile))
	mux.Handle("POST /v1/models/{name}/transform", s.instrument("/v1/models/transform", true, s.handleTransform))
	mux.Handle("POST /v1/models/{name}/probabilities", s.instrument("/v1/models/probabilities", true, s.handleProbabilities))
	return mux
}

// ---- request/response bodies ----

// rowsRequest is the body of transform and probabilities requests, and
// transformResponse and probabilitiesResponse are their answers. The
// client encodes and decodes these structs with encoding/json; the server
// speaks the same bytes through codec.go.
type rowsRequest struct {
	Rows [][]float64 `json:"rows"`
}

// transformResponse echoes the resolved model identity with the
// transformed rows.
type transformResponse struct {
	Model   string      `json:"model"`
	Version int         `json:"version"`
	Rows    [][]float64 `json:"rows"`
}

// probabilitiesResponse carries per-row membership distributions.
type probabilitiesResponse struct {
	Model         string      `json:"model"`
	Version       int         `json:"version"`
	Probabilities [][]float64 `json:"probabilities"`
}

type listResponse struct {
	Models []Info `json:"models"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// httpError is an error with an HTTP status.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// setRetryAfter stamps the shed-response backoff hint (whole seconds,
// rounded up, minimum 1).
func (s *Server) setRetryAfter(w http.ResponseWriter) {
	secs := int(math.Ceil(s.cfg.RetryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// writeError maps an error to a JSON error response: httpError keeps its
// status, overload sheds become 429 (queue full) or 503 (queue
// wait or deadline headroom exceeded) with a Retry-After hint, a
// server-side deadline expiry becomes 504 Gateway Timeout, and
// everything else is a 500.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	var he *httpError
	switch {
	case errors.As(err, &he):
		if he.status == http.StatusTooManyRequests || he.status == http.StatusServiceUnavailable {
			s.setRetryAfter(w)
		}
		writeJSON(w, he.status, errorResponse{Error: he.msg})
	case errors.Is(err, admission.ErrQueueFull):
		s.setRetryAfter(w)
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error()})
	case errors.Is(err, admission.ErrQueueTimeout), errors.Is(err, admission.ErrDeadline):
		s.setRetryAfter(w)
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
	case errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: "request deadline exceeded"})
	case errors.Is(err, context.Canceled):
		// The caller is gone; the status survives only in logs/metrics.
		s.setRetryAfter(w)
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "request cancelled"})
	default:
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
	}
}

// ---- handlers ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() || s.registry.Len() == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "no models loaded")
		return
	}
	fmt.Fprintf(w, "ready: %d model(s)\n", s.registry.Len())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = s.metrics.WriteTo(w)
}

func (s *Server) handleListModels(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, listResponse{Models: s.registry.List()})
}

// resolveEntry finds the model named in the URL, honouring an optional
// ?version=N query parameter.
func (s *Server) resolveEntry(r *http.Request) (*Entry, error) {
	name := r.PathValue("name")
	if v := r.URL.Query().Get("version"); v != "" {
		ver, err := strconv.Atoi(v)
		if err != nil || ver <= 0 {
			return nil, badRequest("invalid version %q", v)
		}
		e, ok := s.registry.GetVersion(name, ver)
		if !ok {
			return nil, &httpError{status: http.StatusNotFound, msg: fmt.Sprintf("model %q version %d not found", name, ver)}
		}
		return e, nil
	}
	e, ok := s.registry.Get(name)
	if !ok {
		return nil, &httpError{status: http.StatusNotFound, msg: fmt.Sprintf("model %q not found", name)}
	}
	return e, nil
}

// decodeRows reads and decodes the request body under the body-size cap
// (see codec.go). Width checks against a concrete model version happen
// separately in checkRowWidths: under canary rollout the serving version
// is chosen per request key, after decoding.
//
// The request deadline is the connection's read deadline while the body
// is read, so a client that withholds its body gets a 504 and frees its
// admission slot. The deadline is cleared once the body is in: net/http
// reads the connection in the background from the body's end on, and a
// deadline firing there would cancel the context of every later request
// on the connection. A connection whose deadline did fire is closed after
// the reply. Bodyless requests are left alone, as their background read
// is already running. Writers without a connection (httptest recorders,
// in-process replays) return http.ErrNotSupported; the context still
// bounds those requests.
func (s *Server) decodeRows(w http.ResponseWriter, r *http.Request) (*rowsBody, error) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	deadline, ok := r.Context().Deadline()
	rc := http.NewResponseController(w)
	if !ok || r.Body == http.NoBody || rc.SetReadDeadline(deadline) != nil {
		return decodeRowsBody(body, s.cfg.MaxRows)
	}
	req, err := decodeRowsBody(body, s.cfg.MaxRows)
	if time.Now().Before(deadline) {
		_ = rc.SetReadDeadline(time.Time{})
	} else {
		// The expired deadline stays, so net/http's discard of an unread
		// body remainder fails at once instead of waiting on the client.
		w.Header().Set("Connection", "close")
	}
	return req, err
}

// checkRowWidths validates every row against the resolved model version.
func checkRowWidths(req *rowsBody, entry *Entry) error {
	want := entry.Model.Dims()
	for i := 0; i < req.Len(); i++ {
		if n := len(req.Row(i)); n != want {
			return badRequest("row %d has %d attributes, model %s expects %d", i, n, entry.Key(), want)
		}
	}
	return nil
}

// CanaryKeyHeader names the request header whose value, when present,
// is the traffic-split key for canary routing. Without it the key is
// derived from the first row's bits, so identical inputs still route
// consistently (and across process restarts).
const CanaryKeyHeader = "X-Canary-Key"

// canaryKey extracts the traffic-split key for a request.
func canaryKey(r *http.Request, row []float64) string {
	if k := r.Header.Get(CanaryKeyHeader); k != "" {
		return k
	}
	h := fnv.New64a()
	var b [8]byte
	for _, v := range row {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		_, _ = h.Write(b[:])
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// routeTransform resolves the serving entry for a transform request:
// explicit ?version=N bypasses rollout; otherwise an active rollout
// splits traffic by request key, and without one the registry's serving
// policy applies. The returned Rollout is non-nil when the request
// should be recorded against an arm.
func (s *Server) routeTransform(r *http.Request, req *rowsBody) (*Entry, *Rollout, error) {
	if s.rollouts == nil || r.URL.Query().Get("version") != "" {
		e, err := s.resolveEntry(r)
		return e, nil, err
	}
	name := r.PathValue("name")
	ro := s.rollouts.For(name)
	if ro == nil {
		e, err := s.resolveEntry(r)
		return e, nil, err
	}
	entry, ok := ro.Route(canaryKey(r, req.Row(0)))
	if !ok {
		return nil, nil, &httpError{status: http.StatusNotFound, msg: fmt.Sprintf("model %q not found", name)}
	}
	return entry, ro, nil
}

func (s *Server) handleTransform(w http.ResponseWriter, r *http.Request) {
	req, err := s.decodeRows(w, r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	// The request and result buffers go back to their pools once the
	// response is written.
	var out []float64
	defer func() {
		if out != nil {
			rowScratch.Put(out)
		}
		req.release()
	}()
	entry, ro, err := s.routeTransform(r, req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	start := time.Now()
	// record feeds the rollout's live statistics: per-arm counters and
	// latency, input drift, and (sampled) the live consistency of the
	// served (input, transform) pair.
	record := func(isErr bool, xt []float64) {
		if ro != nil {
			ro.Record(entry.Version, time.Since(start), isErr, req.Row(0), xt)
		}
	}
	fail := func(err error) {
		record(true, nil)
		s.writeError(w, err)
	}
	if err := checkRowWidths(req, entry); err != nil {
		fail(err)
		return
	}

	n, dims := req.Len(), entry.Model.Dims()
	if n == 1 {
		out = rowScratch.Get(dims)
		if err := (SingleRow{}).TransformRowInto(r.Context(), entry, out, req.Row(0)); err != nil {
			fail(err)
			return
		}
	} else {
		kern, err := entry.Kernel()
		if err != nil {
			fail(err)
			return
		}
		// The decoded rows already are the row-major staging matrix.
		out = rowScratch.Get(n * dims)
		if err := kern.TransformInto(mat.NewDenseData(n, dims, out), mat.NewDenseData(n, dims, req.vals), batchWorkers(kern, n, s.cfg.Workers)); err != nil {
			fail(badRequest("%v", err))
			return
		}
	}
	if req.buf, err = appendResponse(req.buf[:0], entry, transformField, out, dims); err != nil {
		fail(err)
		return
	}
	record(false, out[:dims])
	writeBody(w, req.buf)
}

func (s *Server) handleProbabilities(w http.ResponseWriter, r *http.Request) {
	entry, err := s.resolveEntry(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	req, err := s.decodeRows(w, r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer req.release()
	if err := checkRowWidths(req, entry); err != nil {
		s.writeError(w, err)
		return
	}
	kern, err := entry.Kernel()
	if err != nil {
		s.writeError(w, err)
		return
	}
	k := kern.K()
	probs := rowScratch.Get(req.Len() * k)
	defer rowScratch.Put(probs)
	for i := 0; i < req.Len(); i++ {
		if err := kern.ProbabilitiesInto(probs[i*k:(i+1)*k], req.Row(i)); err != nil {
			s.writeError(w, badRequest("row %d: %v", i, err))
			return
		}
	}
	if req.buf, err = appendResponse(req.buf[:0], entry, probabilitiesField, probs, k); err != nil {
		s.writeError(w, err)
		return
	}
	writeBody(w, req.buf)
}
