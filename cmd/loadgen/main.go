// Command loadgen is a closed-loop load generator for ifair-server and
// ifair-router: N workers each keep exactly one request in flight
// against the transform endpoint, with optional seeded burst phases
// multiplying the offered concurrency, a per-request deadline propagated
// to the server, and the retrying client from internal/server doing the
// backoff. -addr accepts a comma-separated target list (multi-target
// mode: workers are spread round-robin across targets, per-target
// goodput reported at the end). At the end it reports goodput, shed rate
// and exact latency quantiles, and exits non-zero if goodput fell below
// -min-goodput — so `make loadgen` is a pass/fail overload smoke test,
// not just a number printer.
//
// Usage against a running server or router:
//
//	loadgen -addr http://localhost:8080 -model credit -dims 3 \
//	        -concurrency 32 -duration 30s -deadline 250ms
//
// Or fully self-contained: -selftest spins an in-process fleet over a
// synthetic model — -replicas N puts N replica servers behind an
// in-process router, and -chaos K kills replicas mid-run on a seeded
// outage schedule from internal/faultinject, proving goodput holds while
// the router routes around the dead backend:
//
//	loadgen -selftest -replicas 4 -chaos 2 -duration 8s
//
// Against a server running a canary rollout (ifair-server -rollout),
// -canary-report sends a distinct X-Canary-Key per request and breaks
// goodput and latency down per served model version, so a soak can
// assert the canary arm's parity with the stable arm.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/ifair"
	"repro/internal/mat"
	"repro/internal/router"
	"repro/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

type report struct {
	mu         sync.Mutex
	latencies  []time.Duration
	perVersion map[int]*versionStats

	attempts atomic.Int64
	ok       atomic.Int64
	shed     atomic.Int64
	timeout  atomic.Int64
	errs     atomic.Int64

	okPerTarget []atomic.Int64
}

// versionStats aggregates the requests one model version served — the
// per-arm breakdown a canary soak compares across the split.
type versionStats struct {
	ok        int64
	latencies []time.Duration
}

func (v *versionStats) quantile(q float64) time.Duration {
	if len(v.latencies) == 0 {
		return 0
	}
	sort.Slice(v.latencies, func(i, j int) bool { return v.latencies[i] < v.latencies[j] })
	return v.latencies[int(q*float64(len(v.latencies)-1))]
}

func (r *report) observe(d time.Duration) {
	r.mu.Lock()
	r.latencies = append(r.latencies, d)
	r.mu.Unlock()
}

func (r *report) observeVersion(version int, d time.Duration) {
	r.mu.Lock()
	if r.perVersion == nil {
		r.perVersion = make(map[int]*versionStats)
	}
	vs := r.perVersion[version]
	if vs == nil {
		vs = &versionStats{}
		r.perVersion[version] = vs
	}
	vs.ok++
	vs.latencies = append(vs.latencies, d)
	r.mu.Unlock()
}

// quantile returns the exact q-quantile of the recorded latencies
// (nearest-rank); no bucketing, loadgen keeps every sample.
func (r *report) quantile(q float64) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.latencies) == 0 {
		return 0
	}
	sort.Slice(r.latencies, func(i, j int) bool { return r.latencies[i] < r.latencies[j] })
	idx := int(q * float64(len(r.latencies)-1))
	return r.latencies[idx]
}

func run() error {
	var (
		addr        = flag.String("addr", "", "target base URL(s), comma-separated for multi-target mode")
		model       = flag.String("model", "credit", "model name to drive")
		dims        = flag.Int("dims", 3, "input row width of the model")
		concurrency = flag.Int("concurrency", 16, "base closed-loop workers (one request in flight each)")
		duration    = flag.Duration("duration", 10*time.Second, "how long to drive load")
		deadline    = flag.Duration("deadline", 500*time.Millisecond, "per-request deadline, propagated to the server")
		retries     = flag.Int("retries", 2, "retries per request on shed/transport failure")
		bursts      = flag.Int("bursts", 0, "number of seeded burst phases (0 = steady load)")
		burstMax    = flag.Int("burst-max", 4, "maximum load multiplier during a burst")
		seed        = flag.Int64("seed", 1, "seed for the burst and chaos schedules (replays exactly)")
		minGoodput  = flag.Float64("min-goodput", 0, "exit 1 if successful requests/sec falls below this")
		canaryRpt   = flag.Bool("canary-report", false, "send a distinct X-Canary-Key per request and report per-version (per-arm) goodput and latency")
		selftest    = flag.Bool("selftest", false, "spin an in-process fleet over a synthetic model and drive that")
		replicas    = flag.Int("replicas", 1, "selftest: replica servers behind an in-process router (1 = bare server)")
		chaos       = flag.Int("chaos", 0, "selftest: seeded replica outages injected during the run")
	)
	flag.Parse()

	targets := splitTargets(*addr)
	if *selftest {
		fleet, err := selftestFleet(*model, *dims, *replicas)
		if err != nil {
			return err
		}
		defer fleet.cleanup()
		targets = []string{fleet.url}
		if *replicas > 1 {
			fmt.Printf("selftest fleet: router on %s over %d replicas (tiny capacity: expect sheds)\n", fleet.url, *replicas)
		} else {
			fmt.Printf("selftest server on %s (tiny capacity: expect sheds)\n", fleet.url)
		}
		if *chaos > 0 {
			if *replicas < 2 {
				return fmt.Errorf("-chaos needs -replicas ≥ 2 (killing the only replica proves nothing)")
			}
			horizon := int(duration.Seconds())
			if horizon < 1 {
				horizon = 1
			}
			outages := faultinject.Outages(*seed, *chaos, *replicas, horizon, 1, horizon / *chaos)
			fmt.Printf("chaos schedule   %+v\n", outages)
			fleet.runChaos(outages)
		}
	}
	if len(targets) == 0 {
		return fmt.Errorf("specify -addr (comma-separated for multiple targets) or -selftest")
	}

	// One tick per second of runtime; the burst schedule multiplies the
	// worker count during its phases.
	horizon := int(duration.Seconds())
	if horizon < 1 {
		horizon = 1
	}
	schedule := faultinject.Bursts(*seed, *bursts, horizon, 1, horizon/2+1, *burstMax)
	maxWorkers := *concurrency * maxFactor(schedule)

	row := make([]float64, *dims)
	for i := range row {
		row[i] = 0.25 * float64(i+1)
	}

	rep := &report{okPerTarget: make([]atomic.Int64, len(targets))}
	clients := make([]*server.Client, len(targets))
	for i, t := range targets {
		clients[i] = &server.Client{
			BaseURL:    t,
			HTTPClient: &http.Client{Timeout: 2 * *deadline},
			MaxRetries: *retries,
			BaseDelay:  10 * time.Millisecond,
			MaxDelay:   *deadline,
			Seed:       *seed + int64(i),
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()
	start := time.Now()

	// Closed loop: every worker waits for its response before sending
	// the next request. Workers are spread round-robin across targets;
	// burst workers only run while the current tick's factor admits
	// their index.
	var wg sync.WaitGroup
	for w := 0; w < maxWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			target := w % len(targets)
			client := clients[target]
			seq := 0
			for ctx.Err() == nil {
				tick := int(time.Since(start).Seconds())
				if w >= *concurrency*faultinject.FactorAt(schedule, tick) {
					// Outside a burst this worker idles.
					select {
					case <-time.After(50 * time.Millisecond):
					case <-ctx.Done():
					}
					continue
				}
				rep.attempts.Add(1)
				reqCtx, reqCancel := context.WithTimeout(ctx, *deadline)
				t0 := time.Now()
				var err error
				version := 0
				if *canaryRpt {
					// A fresh key per request samples the traffic split; the
					// response's version attributes the latency to its arm.
					seq++
					_, version, err = client.TransformKeyed(reqCtx, *model, fmt.Sprintf("lg-%d-%d", w, seq), row)
				} else {
					_, err = client.Transform(reqCtx, *model, row)
				}
				reqCancel()
				switch {
				case err == nil:
					rep.ok.Add(1)
					rep.okPerTarget[target].Add(1)
					rep.observe(time.Since(t0))
					if *canaryRpt {
						rep.observeVersion(version, time.Since(t0))
					}
				case isShed(err):
					rep.shed.Add(1)
				case reqCtx.Err() != nil && ctx.Err() == nil:
					rep.timeout.Add(1)
				case ctx.Err() != nil:
					// Run over; not a failure.
				default:
					rep.errs.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	goodput := float64(rep.ok.Load()) / elapsed.Seconds()
	attempts := rep.attempts.Load()
	shedRate := 0.0
	if attempts > 0 {
		shedRate = float64(rep.shed.Load()) / float64(attempts)
	}
	fmt.Printf("duration        %v\n", elapsed.Round(time.Millisecond))
	fmt.Printf("attempts        %d\n", attempts)
	fmt.Printf("ok              %d (%.1f req/s goodput)\n", rep.ok.Load(), goodput)
	if len(targets) > 1 {
		for i, t := range targets {
			fmt.Printf("  target %-2d     %d ok (%s)\n", i, rep.okPerTarget[i].Load(), t)
		}
	}
	fmt.Printf("shed            %d (%.1f%% of attempts)\n", rep.shed.Load(), 100*shedRate)
	fmt.Printf("deadline-expired %d\n", rep.timeout.Load())
	fmt.Printf("errors          %d\n", rep.errs.Load())
	fmt.Printf("latency p50     %v\n", rep.quantile(0.50).Round(time.Microsecond))
	fmt.Printf("latency p90     %v\n", rep.quantile(0.90).Round(time.Microsecond))
	fmt.Printf("latency p99     %v\n", rep.quantile(0.99).Round(time.Microsecond))
	var trips, retriesSeen, shedsSeen int64
	for _, c := range clients {
		st := c.Stats()
		trips += st.Requests
		retriesSeen += st.Retries
		shedsSeen += st.Shed
	}
	fmt.Printf("client          %d round trips, %d retries, %d sheds seen\n", trips, retriesSeen, shedsSeen)
	if len(schedule) > 0 {
		fmt.Printf("bursts          %+v\n", schedule)
	}
	if *canaryRpt {
		rep.mu.Lock()
		versions := make([]int, 0, len(rep.perVersion))
		for v := range rep.perVersion {
			versions = append(versions, v)
		}
		sort.Ints(versions)
		fmt.Printf("canary report (per served version):\n")
		okTotal := rep.ok.Load()
		for _, v := range versions {
			vs := rep.perVersion[v]
			share := 0.0
			if okTotal > 0 {
				share = 100 * float64(vs.ok) / float64(okTotal)
			}
			fmt.Printf("  v%-3d          %d ok (%.1f%%, %.1f req/s)  p50 %v  p99 %v\n",
				v, vs.ok, share, float64(vs.ok)/elapsed.Seconds(),
				vs.quantile(0.50).Round(time.Microsecond), vs.quantile(0.99).Round(time.Microsecond))
		}
		rep.mu.Unlock()
	}

	if rep.errs.Load() > 0 && rep.ok.Load() == 0 {
		return fmt.Errorf("every request errored; is the server up and the model name right?")
	}
	if *minGoodput > 0 && goodput < *minGoodput {
		return fmt.Errorf("goodput %.1f req/s below -min-goodput %.1f", goodput, *minGoodput)
	}
	return nil
}

func splitTargets(addr string) []string {
	if addr == "" {
		return nil
	}
	parts := strings.Split(addr, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func maxFactor(bursts []faultinject.Burst) int {
	f := 1
	for _, b := range bursts {
		if b.Factor > f {
			f = b.Factor
		}
	}
	return f
}

// isShed reports whether err is a shed the server told us about
// (already retried by the client, so reaching here means the retry
// budget is spent).
func isShed(err error) bool {
	var se *server.StatusError
	if !errors.As(err, &se) {
		return false
	}
	return se.Status == http.StatusTooManyRequests || se.Status == http.StatusServiceUnavailable
}

// fleet is the self-test topology: one or more in-process replica
// servers, optionally behind an in-process router, each replica killable
// for chaos runs.
type fleet struct {
	url      string
	down     []*atomic.Bool
	cleanups []func()
	ctx      context.Context
	cancel   context.CancelFunc
}

func (f *fleet) cleanup() {
	f.cancel()
	for i := len(f.cleanups) - 1; i >= 0; i-- {
		f.cleanups[i]()
	}
}

// runChaos flips replica down-flags on the seeded outage schedule, one
// evaluation per 100ms so outage edges land within a tenth of a tick.
func (f *fleet) runChaos(outages []faultinject.Outage) {
	start := time.Now()
	go func() {
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-f.ctx.Done():
				return
			case <-t.C:
				tick := int(time.Since(start).Seconds())
				for i, d := range f.down {
					d.Store(faultinject.DownAt(outages, i, tick))
				}
			}
		}
	}()
}

// killable wraps a replica handler: while down, connections are severed
// at the TCP level (the closest in-process stand-in for a dead host) and
// probes fail, so the router's eviction path is exercised for real.
func killable(h http.Handler, down *atomic.Bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			if hj, ok := w.(http.Hijacker); ok {
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close()
					return
				}
			}
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// selftestFleet builds a synthetic model in a temp dir and serves it
// from n replicas with deliberately tiny capacity so sheds actually
// happen; n > 1 fronts them with an in-process router.
func selftestFleet(name string, dims, n int) (*fleet, error) {
	ctx, cancel := context.WithCancel(context.Background())
	f := &fleet{ctx: ctx, cancel: cancel}

	dir, err := os.MkdirTemp("", "loadgen-selftest-")
	if err != nil {
		cancel()
		return nil, err
	}
	f.cleanups = append(f.cleanups, func() { os.RemoveAll(dir) })
	if err := writeSyntheticModel(filepath.Join(dir, name+".json"), dims); err != nil {
		f.cleanup()
		return nil, err
	}

	var backends []string
	for i := 0; i < n; i++ {
		s, err := server.New(server.Config{
			ModelDir:       dir,
			RequestTimeout: 250 * time.Millisecond,
			MaxInflight:    4,
			MaxQueue:       8,
			MaxQueueWait:   30 * time.Millisecond,
		})
		if err != nil {
			f.cleanup()
			return nil, err
		}
		down := &atomic.Bool{}
		ts := httptest.NewServer(killable(s.Handler(), down))
		f.down = append(f.down, down)
		f.cleanups = append(f.cleanups, func() { ts.Close(); s.Close() })
		backends = append(backends, ts.URL)
	}
	if n == 1 {
		f.url = backends[0]
		return f, nil
	}

	rt, err := router.New(router.Config{
		Backends:      backends,
		ProbeInterval: 100 * time.Millisecond,
	})
	if err != nil {
		f.cleanup()
		return nil, err
	}
	rt.Start(ctx, nil)
	ts := httptest.NewServer(rt.Handler())
	f.cleanups = append(f.cleanups, ts.Close)
	f.url = ts.URL
	return f, nil
}

// writeSyntheticModel drops a small valid model file at path.
func writeSyntheticModel(path string, dims int) error {
	protos := mat.NewDense(4, dims)
	for i := 0; i < 4; i++ {
		for j := 0; j < dims; j++ {
			protos.Set(i, j, float64(i)+0.1*float64(j))
		}
	}
	alpha := make([]float64, dims)
	for j := range alpha {
		alpha[j] = 1
	}
	m := &ifair.Model{Prototypes: protos, Alpha: alpha, P: 2, Kernel: ifair.ExpKernel, Loss: 0.5}
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Encode(file); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}
