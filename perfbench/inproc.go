package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"repro/internal/mat"
	"repro/internal/server"
)

// layerTimes is what the in-process replays measure: the server's layers
// called directly, without a socket or a child process.
type layerTimes struct {
	handler  []time.Duration // Handler().ServeHTTP at the open-loop schedule
	codec    []time.Duration // request decode + response encode
	kernel   []time.Duration // Entry.Kernel().TransformInto on one request's rows
	batcher  []time.Duration // Batcher.TransformRowInto at the open-loop schedule
	admit    []time.Duration // Limiter.Acquire + release
	allocs   float64         // heap allocations per ServeHTTP
	bytes    float64         // heap bytes per ServeHTTP
	attempts int
	failures int
}

// count adds one attempt per outcome and one failure per false.
func (lt *layerTimes) count(oks []bool) {
	for _, ok := range oks {
		lt.attempts++
		if !ok {
			lt.failures++
		}
	}
}

// cliServerConfig is the server.Config that cmd/ifair-server builds from
// its flag defaults when only -models and -addr are given.
func cliServerConfig(models string) server.Config {
	return server.Config{
		ModelDir:       models,
		MaxBatch:       32,
		MaxWait:        2 * time.Millisecond,
		Workers:        runtime.GOMAXPROCS(0),
		RequestTimeout: 10 * time.Second,
		MaxBodyBytes:   8 << 20,
		MaxRows:        10000,
		RetryAfter:     time.Second,
	}
}

// replayLayers builds an in-process server over the same model directory
// and times the calls into each serving layer. The handler and batcher
// replays follow the workload's open-loop arrival schedule, so the
// micro-batcher sees the same concurrency it sees over the network.
func replayLayers(ctx context.Context, models, name string, reqs []*request, due []time.Duration, serial int) (*layerTimes, error) {
	s, err := server.New(cliServerConfig(models))
	if err != nil {
		return nil, err
	}
	defer s.Close()
	entry, ok := s.Registry().Get(name)
	if !ok {
		return nil, fmt.Errorf("in-process server: model %q not loaded", name)
	}
	kern, err := entry.Kernel()
	if err != nil {
		return nil, err
	}
	h := s.Handler()
	url := "/v1/models/" + name + "/transform"
	lt := &layerTimes{}

	// Warm the handler, kernel and pools before timing.
	for _, r := range reqs[:min(len(reqs), 32)] {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, url, bytes.NewReader(r.body)))
	}

	// Handler at the arrival schedule.
	lt.handler = make([]time.Duration, len(due))
	ok1 := make([]bool, len(due))
	forSchedule(ctx, time.Now(), due, func(i int) {
		r := reqs[i%len(reqs)]
		req := httptest.NewRequest(http.MethodPost, url, bytes.NewReader(r.body))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		lt.handler[i] = time.Since(t0)
		ok1[i] = rec.Code == http.StatusOK && checkResponse(rec.Body.Bytes(), r)
	})
	lt.count(ok1)

	// Heap allocations per ServeHTTP, serially, with requests and
	// recorders built before the count starts.
	hreqs := make([]*http.Request, serial)
	recs := make([]*httptest.ResponseRecorder, serial)
	for i := range hreqs {
		hreqs[i] = httptest.NewRequest(http.MethodPost, url, bytes.NewReader(reqs[i%len(reqs)].body))
		recs[i] = httptest.NewRecorder()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range hreqs {
		h.ServeHTTP(recs[i], hreqs[i])
	}
	runtime.ReadMemStats(&after)
	lt.allocs = float64(after.Mallocs-before.Mallocs) / float64(serial)
	lt.bytes = float64(after.TotalAlloc-before.TotalAlloc) / float64(serial)

	// Codec: the decode and encode calls the handler makes, on the same
	// bodies and responses.
	type rowsRequest struct {
		Rows [][]float64 `json:"rows"`
	}
	for i := 0; i < serial; i++ {
		r := reqs[i%len(reqs)]
		t0 := time.Now()
		dec := json.NewDecoder(bytes.NewReader(r.body))
		dec.DisallowUnknownFields()
		var in rowsRequest
		if err := dec.Decode(&in); err != nil {
			return nil, fmt.Errorf("codec replay: %w", err)
		}
		if err := json.NewEncoder(io.Discard).Encode(transformResponse{Model: name, Version: entry.Version, Rows: r.want}); err != nil {
			return nil, fmt.Errorf("codec replay: %w", err)
		}
		lt.codec = append(lt.codec, time.Since(t0))
	}

	// Kernel on one request's rows.
	dims := entry.Model.Dims()
	for i := 0; i < serial; i++ {
		r := reqs[i%len(reqs)]
		x := mat.NewDense(len(r.rows), dims)
		for j, row := range r.rows {
			copy(x.Row(j), row)
		}
		xt := mat.NewDense(len(r.rows), dims)
		t0 := time.Now()
		if err := kern.TransformInto(xt, x, runtime.GOMAXPROCS(0)); err != nil {
			return nil, err
		}
		lt.kernel = append(lt.kernel, time.Since(t0))
	}

	// Admission: acquire and release on the server's limiter.
	for i := 0; i < serial; i++ {
		t0 := time.Now()
		release, err := s.Limiter().Acquire(ctx)
		if err != nil {
			return nil, err
		}
		release()
		lt.admit = append(lt.admit, time.Since(t0))
	}

	// Batcher: single-row requests only; multi-row requests bypass it.
	if len(reqs[0].rows) == 1 {
		lt.batcher = make([]time.Duration, len(due))
		ok2 := make([]bool, len(due))
		forSchedule(ctx, time.Now(), due, func(i int) {
			r := reqs[i%len(reqs)]
			dst := make([]float64, dims)
			t0 := time.Now()
			err := s.Batcher().TransformRowInto(ctx, entry, dst, r.rows[0])
			lt.batcher[i] = time.Since(t0)
			ok2[i] = err == nil && sameBits(dst, r.want[0])
		})
		lt.count(ok2)
	}
	return lt, nil
}

// forSchedule calls fn(i) on its own goroutine at start+due[i] and waits
// for every call to return. Calls not yet started when ctx ends are
// skipped.
func forSchedule(ctx context.Context, start time.Time, due []time.Duration, fn func(i int)) {
	var wg sync.WaitGroup
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for i, at := range due {
		if d := time.Until(start.Add(at)); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}
