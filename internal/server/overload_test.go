package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// TestOverloadSoak drives the server at ~4× its admission capacity with
// closed-loop workers whose bodies arrive over ~2ms, a fraction of them
// chaotic (slower bodies, mid-body disconnects), and asserts the
// overload-protection contract:
// excess load is shed with Retry-After instead of queueing unboundedly,
// goodput stays positive, admitted-request latency respects the
// queue-cap + compute budget, probes stay reachable, and a graceful
// Shutdown drains cleanly with no goroutine leak.
//
// The default run is sized for CI; IFAIR_TEST_OVERLOAD=1 widens the
// duration and worker count for a real soak.
func TestOverloadSoak(t *testing.T) {
	const (
		maxInflight  = 4
		maxQueue     = 8
		maxQueueWait = 30 * time.Millisecond
		reqTimeout   = 250 * time.Millisecond
	)
	duration := 700 * time.Millisecond
	workers := 4 * (maxInflight + maxQueue) // 4× what the server admits + queues
	if os.Getenv("IFAIR_TEST_OVERLOAD") == "1" {
		duration = 8 * time.Second
		workers *= 2
	}

	goroutinesBefore := runtime.NumGoroutine()

	dir := t.TempDir()
	writeModelFile(t, dir, "credit.json", testModel(2, 3))
	s, err := New(Config{
		ModelDir:       dir,
		RequestTimeout: reqTimeout,
		MaxInflight:    maxInflight,
		MaxQueue:       maxQueue,
		MaxQueueWait:   maxQueueWait,
		RetryAfter:     time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	body, err := json.Marshal(rowsRequest{Rows: [][]float64{{0.5, 1.5, -0.25}}})
	if err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/v1/models/credit/transform"

	var (
		goodput      atomic.Int64
		sheds        atomic.Int64
		shedNoRetry  atomic.Int64 // 429/503 missing Retry-After: must stay 0
		timeouts     atomic.Int64 // 504s
		chaosErrs    atomic.Int64 // client-side transport errors from injected chaos
		otherStatus  atomic.Int64
		queueOverCap atomic.Int64 // limiter samples above configured bounds
	)
	var latMu sync.Mutex
	var latencies []time.Duration

	stop := make(chan struct{})
	time.AfterFunc(duration, func() { close(stop) })

	// A sampler polls the limiter while the storm runs: queue depth and
	// inflight must never exceed their configured caps.
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			st := s.Limiter().Stats()
			if st.QueueDepth > maxQueue || st.Inflight > maxInflight {
				queueOverCap.Add(1)
			}
		}
	}()

	client := &http.Client{Timeout: 2 * reqTimeout}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var reqBody = func() *http.Request {
					// Chaos clients: every 7th request of workers 0-3
					// uploads through a slow reader; every 5th request of
					// workers 4-5 disconnects mid-body.
					switch {
					case w < 4 && i%7 == 3:
						r, _ := http.NewRequest(http.MethodPost, url,
							&faultinject.SlowReader{R: bytes.NewReader(body), Chunk: 8, Delay: 2 * time.Millisecond})
						return r
					case w >= 4 && w < 6 && i%5 == 2:
						r, _ := http.NewRequest(http.MethodPost, url,
							&faultinject.DisconnectReader{R: bytes.NewReader(body), N: len(body) / 2})
						return r
					default:
						// The rest upload in two halves 1ms apart, as
						// over a slow link, so each admitted request holds
						// its slot for about 2ms: the transform itself
						// takes microseconds, and without this the workers
						// would not load the slots past capacity.
						r, _ := http.NewRequest(http.MethodPost, url,
							&faultinject.SlowReader{R: bytes.NewReader(body), Chunk: len(body)/2 + 1, Delay: time.Millisecond})
						return r
					}
				}()
				reqBody.Header.Set("Content-Type", "application/json")
				reqBody.Header.Set(TimeoutHeader, strconv.Itoa(int(reqTimeout.Milliseconds())))

				start := time.Now()
				resp, err := client.Do(reqBody)
				elapsed := time.Since(start)
				if err != nil {
					chaosErrs.Add(1)
					continue
				}
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					goodput.Add(1)
					latMu.Lock()
					latencies = append(latencies, elapsed)
					latMu.Unlock()
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					sheds.Add(1)
					if resp.Header.Get("Retry-After") == "" {
						shedNoRetry.Add(1)
					}
				case http.StatusGatewayTimeout:
					timeouts.Add(1)
				case http.StatusBadRequest:
					// Truncated chaos bodies decode-fail; expected.
					chaosErrs.Add(1)
				default:
					otherStatus.Add(1)
					t.Errorf("unexpected status %d", resp.StatusCode)
				}
			}
		}(w)
	}

	// Probes must stay reachable at full overload: they bypass admission.
	probeDeadline := time.Now().Add(duration / 2)
	for time.Now().Before(probeDeadline) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatalf("healthz unreachable under load: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz = %d under load, want 200", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}

	wg.Wait()
	samplerWG.Wait()

	// The contract, part 1: the server survived and did useful work.
	if goodput.Load() == 0 {
		t.Fatal("zero goodput under overload: server starved its own traffic")
	}
	if sheds.Load() == 0 {
		t.Fatal("no sheds at 4x capacity: admission control not engaging")
	}
	if n := shedNoRetry.Load(); n != 0 {
		t.Fatalf("%d shed responses missing Retry-After", n)
	}
	if n := queueOverCap.Load(); n != 0 {
		t.Fatalf("limiter exceeded configured bounds in %d samples", n)
	}

	// Part 2: admitted requests obey the latency budget — queue-time cap
	// plus the request compute budget plus scheduling slack (generous:
	// the race detector slows everything down).
	latMu.Lock()
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	p99 := latencies[len(latencies)*99/100]
	latMu.Unlock()
	budget := maxQueueWait + reqTimeout + 500*time.Millisecond
	if p99 > budget {
		t.Fatalf("admitted p99 = %v, above the %v queue+compute budget", p99, budget)
	}

	// Part 3: the overload counters are on /metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsBody := new(bytes.Buffer)
	metricsBody.ReadFrom(resp.Body) //nolint:errcheck
	resp.Body.Close()
	page := metricsBody.String()
	for _, want := range []string{
		"ifair_admission_shed_total",
		"ifair_admission_queue_depth",
		"ifair_admission_inflight",
	} {
		if !bytes.Contains(metricsBody.Bytes(), []byte(want)) {
			t.Errorf("/metrics missing %q:\n%s", want, page)
		}
	}

	// Part 4: graceful drain — Shutdown (the SIGTERM path) completes
	// within its bound and the storm leaves no goroutines behind.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ts.Config.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	ts.Close()
	s.Close()

	leakDeadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore+15 {
		if time.Now().After(leakDeadline) {
			t.Fatalf("goroutines grew from %d to %d after drain", goroutinesBefore, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}

	t.Logf("soak: goodput=%d sheds=%d timeouts=%d chaos=%d p99=%v",
		goodput.Load(), sheds.Load(), timeouts.Load(), chaosErrs.Load(), p99)
	_ = fmt.Sprint(otherStatus.Load())
}
