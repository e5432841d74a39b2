package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"repro/internal/admission"
)

// TimeoutHeader is the client deadline-propagation header: the caller's
// remaining budget in whole milliseconds. The server clamps it to its
// own RequestTimeout, so a generous client cannot extend the server's
// per-request bound, while an impatient one stops being served the
// moment its budget is gone.
const TimeoutHeader = "X-Request-Timeout-Ms"

// statusRecorder captures the status code a handler writes.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// Unwrap lets http.NewResponseController reach the connection.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// Flush passes streaming flushes through to the underlying writer, so
// wrapping a handler never hides http.Flusher from it.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// effectiveTimeout clamps the client's propagated budget (if any) to the
// server's own per-request bound. Absent or malformed headers fall back
// to the server bound.
func effectiveTimeout(r *http.Request, serverTimeout time.Duration) time.Duration {
	h := r.Header.Get(TimeoutHeader)
	if h == "" {
		return serverTimeout
	}
	ms, err := strconv.ParseInt(h, 10, 64)
	if err != nil || ms <= 0 {
		return serverTimeout
	}
	if d := time.Duration(ms) * time.Millisecond; d < serverTimeout {
		return d
	}
	return serverTimeout
}

// shedReason labels an admission rejection for the shed counter.
func shedReason(err error) string {
	switch {
	case errors.Is(err, admission.ErrQueueFull):
		return "queue_full"
	case errors.Is(err, admission.ErrQueueTimeout):
		return "queue_timeout"
	case errors.Is(err, admission.ErrDeadline):
		return "deadline"
	default:
		return "context"
	}
}

// instrument wraps a handler with the per-endpoint cross-cutting
// concerns: a request-scoped timeout (the client's propagated budget
// clamped to the server's), panic recovery, request/error counters and a
// latency histogram labelled by path. With admit set the request must
// also pass admission control — overload sheds it with 429/503 +
// Retry-After before any handler work happens. Health probes and
// /metrics pass admit=false so they are never queued behind traffic.
func (s *Server) instrument(path string, admit bool, h http.HandlerFunc) http.Handler {
	latency := s.metrics.Histogram("ifair_http_request_duration_seconds", latencyBuckets, "path="+path)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		timeout := s.cfg.RequestTimeout
		if admit {
			timeout = effectiveTimeout(r, timeout)
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		r = r.WithContext(ctx)

		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		defer func() {
			if p := recover(); p != nil {
				s.metrics.Counter("ifair_http_panics_total", "path="+path).Inc()
				if rec.status == 0 {
					writeJSON(rec, http.StatusInternalServerError,
						errorResponse{Error: fmt.Sprintf("internal error: %v", p)})
				}
				// Surface the stack for the operator; the client already
				// has its 500.
				log.Printf("panic serving %s: %v\n%s", path, p, debug.Stack())
			}
			elapsed := time.Since(start).Seconds()
			latency.Observe(elapsed)
			status := rec.status
			if status == 0 {
				status = http.StatusOK
			}
			s.metrics.Counter("ifair_http_requests_total",
				"path="+path, "code="+strconv.Itoa(status)).Inc()
			if status >= 400 {
				s.metrics.Counter("ifair_http_errors_total",
					"path="+path, "code="+strconv.Itoa(status)).Inc()
			}
		}()
		if admit {
			release, err := s.limiter.Acquire(ctx)
			if err != nil {
				s.metrics.Counter("ifair_admission_shed_total",
					"path="+path, "reason="+shedReason(err)).Inc()
				s.writeError(rec, err)
				return
			}
			defer release()
		}
		h(rec, r)
	})
}
