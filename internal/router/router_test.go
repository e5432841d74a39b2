package router

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ifair"
	"repro/internal/mat"
	"repro/internal/server"
)

// writeTestModel drops a small valid model file into dir.
func writeTestModel(t *testing.T, dir, file string, dims int) {
	t.Helper()
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
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Encode(f); err != nil {
		f.Close()
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// newBackend spins one real ifair-server replica over dir, wrapped in a
// kill switch: while down is set, connections are severed at the TCP
// level — the closest in-process stand-in for a dead host.
func newBackend(t *testing.T, dir string) (*httptest.Server, *atomic.Bool) {
	t.Helper()
	return newBackendWrapped(t, dir, nil)
}

// newBackendWrapped is newBackend with an optional middleware between
// the kill switch and the real server (the soak tests insert a capacity
// gate there).
func newBackendWrapped(t *testing.T, dir string, wrap func(http.Handler) http.Handler) (*httptest.Server, *atomic.Bool) {
	t.Helper()
	s, err := server.New(server.Config{
		ModelDir:       dir,
		RequestTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	down := &atomic.Bool{}
	var h http.Handler = s.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
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
	}))
	t.Cleanup(func() { ts.Close(); s.Close() })
	return ts, down
}

// newTestRouter fronts n real replicas (sharing one model dir with one
// "credit" model) with a router and returns it plus the per-replica kill
// switches. Probing is NOT started — tests drive probeOnce directly or
// call rt.Start themselves.
func newTestRouter(t *testing.T, n int, cfg Config) (*Router, *httptest.Server, []*atomic.Bool) {
	t.Helper()
	dir := t.TempDir()
	writeTestModel(t, dir, "credit.json", 3)
	var downs []*atomic.Bool
	for i := 0; i < n; i++ {
		ts, down := newBackend(t, dir)
		cfg.Backends = append(cfg.Backends, ts.URL)
		downs = append(downs, down)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	return rt, front, downs
}

func postTransform(t *testing.T, base, model string, rows string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/models/"+model+"/transform", "application/json",
		strings.NewReader(fmt.Sprintf(`{"rows": %s}`, rows)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body []byte
	body, err = readAll(resp)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func readAll(resp *http.Response) ([]byte, error) {
	var buf []byte
	tmp := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(tmp)
		buf = append(buf, tmp[:n]...)
		if err != nil {
			if err.Error() == "EOF" {
				return buf, nil
			}
			return buf, err
		}
	}
}

func TestRouterProxiesTransform(t *testing.T) {
	_, front, _ := newTestRouter(t, 2, Config{})
	resp, body := postTransform(t, front.URL, "credit", `[[0.1, -1.2, 0.5]]`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Model string      `json:"model"`
		Rows  [][]float64 `json:"rows"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Model != "credit" || len(out.Rows) != 1 || len(out.Rows[0]) != 3 {
		t.Fatalf("unexpected proxied response: %s", body)
	}
}

func TestRouterProxiesReadEndpoints(t *testing.T) {
	_, front, _ := newTestRouter(t, 2, Config{})
	for _, path := range []string{"/v1/models", "/v1/sync/manifest"} {
		resp, err := http.Get(front.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := readAll(resp)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s status %d: %s", path, resp.StatusCode, body)
		}
	}
}

func TestRouterRelaysClientErrors(t *testing.T) {
	_, front, _ := newTestRouter(t, 2, Config{})
	// Malformed body: a definitive 400, relayed as-is.
	resp, body := postTransform(t, front.URL, "credit", `"not rows"`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "error") {
		t.Fatalf("error body not in JSON error shape: %s", body)
	}
	// Unknown model: 404 after every replica has been asked (any one of
	// them might have been sync-lagging).
	resp, body = postTransform(t, front.URL, "missing", `[[1, 2, 3]]`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model status %d: %s", resp.StatusCode, body)
	}
}

func TestRouterReroutesAroundDeadReplica(t *testing.T) {
	rt, front, downs := newTestRouter(t, 2, Config{})
	downs[0].Store(true)
	downs[1].Store(true)
	// Find which replica the hash prefers for "credit" and kill only it,
	// so the first attempt reliably hits the dead one.
	for i := range downs {
		downs[i].Store(false)
	}
	home := rt.balancer.Pick("credit", rt.replicas)
	for i, rep := range rt.replicas {
		if rep == home {
			downs[i].Store(true)
		}
	}
	resp, body := postTransform(t, front.URL, "credit", `[[0.1, -1.2, 0.5]]`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d with one dead replica: %s", resp.StatusCode, body)
	}
	if rt.reroutes.Value() == 0 {
		t.Fatal("request succeeded without counting a reroute past the dead home")
	}
	if home.failed.Value() == 0 {
		t.Fatal("dead replica's error counter never moved")
	}
}

func TestRouterRoutesAroundSheddingReplica(t *testing.T) {
	// One real replica plus one fake that always sheds with Retry-After.
	dir := t.TempDir()
	writeTestModel(t, dir, "credit.json", 3)
	real, _ := newBackend(t, dir)
	shedder := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprintln(w, `{"error":"overloaded"}`)
	}))
	t.Cleanup(shedder.Close)

	// LeastLoaded tie-breaks to candidate order, so the first request
	// deterministically hits the shedder regardless of port hashing.
	rt, err := New(Config{Backends: []string{shedder.URL, real.URL}, Balancer: LeastLoaded{}, MaxCooldown: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	shedRep := rt.replicas[0]
	for i := 0; i < 8; i++ {
		resp, body := postTransform(t, front.URL, "credit", `[[0.1, -1.2, 0.5]]`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d status %d: %s", i, resp.StatusCode, body)
		}
	}
	// The shedding replica was tried at most once: after the first 429
	// its Retry-After cooldown keeps it out of the candidate set, so the
	// router never retries into a backend that just shed.
	if n := shedRep.shed.Value(); n != 1 {
		t.Fatalf("shedding replica was sent %d requests, want exactly 1 (cooldown must hold it out)", n)
	}
	if !shedRep.InCooldown(time.Now()) {
		t.Fatal("shedding replica not in cooldown after a Retry-After 429")
	}
	if shedRep.Healthy() != true {
		t.Fatal("shedding must cool down, not evict: the backend is alive and protecting itself")
	}
}

func TestRouterAllSheddingRelays503WithRetryAfter(t *testing.T) {
	shedder := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "2")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"error":"draining"}`)
	}))
	t.Cleanup(shedder.Close)
	rt, err := New(Config{Backends: []string{shedder.URL}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	resp, body := postTransform(t, front.URL, "credit", `[[1, 2, 3]]`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After %q, want the replicas' own hint \"2\"", ra)
	}
	if !strings.Contains(string(body), "all replicas shedding") {
		t.Fatalf("body %s, want an all-replicas-shedding error", body)
	}
}

func TestRouterNoHealthyReplicas(t *testing.T) {
	rt, front, _ := newTestRouter(t, 2, Config{})
	for _, rep := range rt.replicas {
		rep.healthy.Store(false)
	}
	resp, body := postTransform(t, front.URL, "credit", `[[1, 2, 3]]`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("no-backend 503 must carry a Retry-After hint")
	}
	// readyz mirrors the same judgement.
	r2, err := http.Get(front.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz status %d with zero healthy replicas", r2.StatusCode)
	}
	rt.replicas[0].healthy.Store(true)
	r3, err := http.Get(front.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusOK {
		t.Fatalf("readyz status %d with one healthy replica, want 200", r3.StatusCode)
	}
}

func TestRouterBodyTooLarge(t *testing.T) {
	_, front, _ := newTestRouter(t, 1, Config{MaxBodyBytes: 64})
	big := strings.Repeat("1, ", 200)
	resp, body := postTransform(t, front.URL, "credit", "[["+big+"1]]")
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
}

func TestRouterMetricsExposition(t *testing.T) {
	_, front, _ := newTestRouter(t, 2, Config{})
	if resp, _ := postTransform(t, front.URL, "credit", `[[0.1, -1.2, 0.5]]`); resp.StatusCode != http.StatusOK {
		t.Fatalf("transform status %d", resp.StatusCode)
	}
	resp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAll(resp)
	resp.Body.Close()
	out := string(body)
	for _, want := range []string{
		"router_replica_ok_total",
		"router_replica_healthy",
		"router_replica_sync_lag_files",
		"router_evictions_total",
		"router_reroutes_total",
		"go_goroutines",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics exposition missing %s:\n%s", want, out)
		}
	}
}

func TestRouterClampsTimeoutHeader(t *testing.T) {
	rt, _, _ := newTestRouter(t, 1, Config{RequestTimeout: 2 * time.Second})
	mk := func(header string) *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/v1/models/credit/transform", nil)
		if header != "" {
			r.Header.Set(server.TimeoutHeader, header)
		}
		return r
	}
	if d := rt.requestTimeout(mk("")); d != 2*time.Second {
		t.Fatalf("no header → %v, want the router bound", d)
	}
	if d := rt.requestTimeout(mk("500")); d != 500*time.Millisecond {
		t.Fatalf("500ms budget → %v", d)
	}
	if d := rt.requestTimeout(mk("60000")); d != 2*time.Second {
		t.Fatalf("oversized budget → %v, want clamped to 2s", d)
	}
	if d := rt.requestTimeout(mk("garbage")); d != 2*time.Second {
		t.Fatalf("garbage budget → %v, want the router bound", d)
	}
}

func TestRouterRequiresBackends(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New with no backends must error")
	}
}

func TestRouteKey(t *testing.T) {
	r := httptest.NewRequest(http.MethodPost, "/v1/models/credit/transform", nil)
	r.SetPathValue("name", "credit")
	if k := routeKey(r); k != "credit" {
		t.Fatalf("routeKey = %q", k)
	}
	r = httptest.NewRequest(http.MethodPost, "/v1/models/credit/transform?version=3", nil)
	r.SetPathValue("name", "credit")
	if k := routeKey(r); k != "credit@v3" {
		t.Fatalf("versioned routeKey = %q", k)
	}
}
