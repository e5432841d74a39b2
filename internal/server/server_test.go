package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

// newTestServer spins up a server over a temp model directory holding
// credit v1+v2 and hiring v1.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	writeModelFile(t, dir, "credit.json", testModel(2, 3))
	writeModelFile(t, dir, "credit@v2.json", testModel(4, 3))
	writeModelFile(t, dir, "hiring.json", testModel(3, 5))
	cfg.ModelDir = dir
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestTransformRoundTripMatchesModel(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	entry, _ := s.Registry().Get("credit")

	rows := [][]float64{
		{0.5, -1, 2},
		{1, 1, 1},
		{0, 0, 0},
	}
	resp, body := postJSON(t, ts.URL+"/v1/models/credit/transform", rowsRequest{Rows: rows})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var tr transformResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Model != "credit" || tr.Version != 2 {
		t.Fatalf("resolved %s@v%d, want credit latest (v2)", tr.Model, tr.Version)
	}
	// The acceptance bar: served rows identical to Model.Transform output.
	for i, row := range rows {
		want := entry.Model.TransformRow(row)
		for j := range want {
			if tr.Rows[i][j] != want[j] {
				t.Fatalf("row %d differs from Model.Transform: %v vs %v", i, tr.Rows[i], want)
			}
		}
	}
}

func TestTransformVersionSelection(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	v1, _ := s.Registry().GetVersion("credit", 1)
	resp, body := postJSON(t, ts.URL+"/v1/models/credit/transform?version=1",
		rowsRequest{Rows: [][]float64{{1, 2, 3}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var tr transformResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Version != 1 {
		t.Fatalf("version = %d, want 1", tr.Version)
	}
	want := v1.Model.TransformRow([]float64{1, 2, 3})
	for j := range want {
		if tr.Rows[0][j] != want[j] {
			t.Fatal("versioned transform differs from the v1 model")
		}
	}
}

func TestProbabilitiesEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/models/hiring/probabilities",
		rowsRequest{Rows: [][]float64{{1, 2, 3, 4, 5}, {0, 0, 0, 0, 0}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var pr probabilitiesResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Probabilities) != 2 {
		t.Fatalf("got %d membership rows, want 2", len(pr.Probabilities))
	}
	for _, u := range pr.Probabilities {
		if len(u) != 3 {
			t.Fatalf("membership width %d, want K=3", len(u))
		}
		var sum float64
		for _, p := range u {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("memberships sum to %v", sum)
		}
	}
}

func TestListModelsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := getBody(t, ts.URL+"/v1/models")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var lr listResponse
	if err := json.Unmarshal(body, &lr); err != nil {
		t.Fatal(err)
	}
	if len(lr.Models) != 3 {
		t.Fatalf("listed %d models, want 3: %+v", len(lr.Models), lr.Models)
	}
}

func TestErrorResponses(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxRows: 2})
	cases := []struct {
		name   string
		url    string
		body   string
		status int
	}{
		{"unknown model", "/v1/models/nope/transform", `{"rows":[[1,2,3]]}`, http.StatusNotFound},
		{"unknown version", "/v1/models/credit/transform?version=9", `{"rows":[[1,2,3]]}`, http.StatusNotFound},
		{"bad version", "/v1/models/credit/transform?version=zero", `{"rows":[[1,2,3]]}`, http.StatusBadRequest},
		{"wrong width", "/v1/models/credit/transform", `{"rows":[[1,2]]}`, http.StatusBadRequest},
		{"wrong width probabilities", "/v1/models/credit/probabilities", `{"rows":[[1]]}`, http.StatusBadRequest},
		{"empty rows", "/v1/models/credit/transform", `{"rows":[]}`, http.StatusBadRequest},
		{"too many rows", "/v1/models/credit/transform", `{"rows":[[1,2,3],[1,2,3],[1,2,3]]}`, http.StatusBadRequest},
		{"malformed json", "/v1/models/credit/transform", `{"rows":`, http.StatusBadRequest},
		{"unknown field", "/v1/models/credit/transform", `{"rowz":[[1,2,3]]}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+c.url, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("%s: status = %d, want %d (%s)", c.name, resp.StatusCode, c.status, data)
			continue
		}
		var er errorResponse
		if err := json.Unmarshal(data, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body %q is not a JSON error", c.name, data)
		}
	}
}

func TestBodySizeLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 16})
	resp, _ := postJSON(t, ts.URL+"/v1/models/credit/transform",
		rowsRequest{Rows: [][]float64{{1.123456789, 2.123456789, 3.123456789}, {1, 2, 3}}})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}

func TestHealthAndReadyEndpoints(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if resp, _ := getBody(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	if resp, _ := getBody(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d", resp.StatusCode)
	}
	// Empty the registry: readyz must flip to 503 while healthz stays 200.
	s.ready.Store(false)
	if resp, _ := getBody(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with no models = %d, want 503", resp.StatusCode)
	}
	if resp, _ := getBody(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz should stay 200")
	}
}

func TestMetricsEndpointReportsTraffic(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i := 0; i < 3; i++ {
		postJSON(t, ts.URL+"/v1/models/credit/transform", rowsRequest{Rows: [][]float64{{1, 2, 3}, {0, 0, 0}}})
	}
	postJSON(t, ts.URL+"/v1/models/nope/transform", rowsRequest{Rows: [][]float64{{1, 2, 3}}})

	resp, body := getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	out := string(body)
	for _, want := range []string{
		`ifair_http_requests_total{code="200",path="/v1/models/transform"} 3`,
		`ifair_http_requests_total{code="404",path="/v1/models/transform"} 1`,
		`ifair_http_errors_total{code="404",path="/v1/models/transform"} 1`,
		`ifair_http_request_duration_seconds_count{path="/v1/models/transform"} 4`,
		`ifair_http_request_duration_seconds{path="/v1/models/transform",quantile="0.5"}`,
		`ifair_http_request_duration_seconds{path="/v1/models/transform",quantile="0.99"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q\n%s", want, out)
		}
	}
}

// withheldPost is a transform request whose client sends the headers and
// the first bytes of the body, then withholds the rest until finish: it
// parks the request inside the handler, holding its admission slot.
type withheldPost struct {
	body *io.PipeWriter
	done chan withheldResult
}

type withheldResult struct {
	status int
	err    error
}

// postWithheld starts a withheld transform request for a two-attribute
// row; header, if non-nil, adds request headers. Its cleanup closes the
// body, so a test server closed by an earlier-registered t.Cleanup (not
// a defer) cannot wait forever on a parked handler.
func postWithheld(t *testing.T, url string, header http.Header) *withheldPost {
	t.Helper()
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, url, pr)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header[k] = v
	}
	p := &withheldPost{body: pw, done: make(chan withheldResult, 1)}
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			p.done <- withheldResult{err: err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		p.done <- withheldResult{status: resp.StatusCode}
	}()
	go io.WriteString(pw, `{"rows":[[1,`) //nolint:errcheck
	t.Cleanup(func() { pw.Close() })
	return p
}

// finish sends the rest of the body.
func (p *withheldPost) finish() {
	io.WriteString(p.body, `2]]}`) //nolint:errcheck
	p.body.Close()
}

// waitInflight waits until the limiter reports n admitted requests.
func waitInflight(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Limiter().Stats().Inflight != n {
		if time.Now().After(deadline) {
			t.Fatalf("inflight = %d, want %d", s.Limiter().Stats().Inflight, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGracefulShutdownDrains verifies the serving contract cmd/ifair-server
// relies on: http.Server.Shutdown lets an in-flight request finish and the
// client receives its 200.
func TestGracefulShutdownDrains(t *testing.T) {
	dir := t.TempDir()
	writeModelFile(t, dir, "m.json", testModel(2, 2))
	s, err := New(Config{ModelDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: s.Handler()}
	shuttingDown := make(chan struct{})
	srv.RegisterOnShutdown(func() { close(shuttingDown) })
	go srv.Serve(ln)

	// This request is still sending its body when Shutdown fires.
	p := postWithheld(t, "http://"+ln.Addr().String()+"/v1/models/m/transform", nil)
	waitInflight(t, s, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	shutdown := make(chan error, 1)
	go func() { shutdown <- srv.Shutdown(ctx) }()
	<-shuttingDown
	p.finish()
	if err := <-shutdown; err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	res := <-p.done
	if res.err != nil {
		t.Fatalf("in-flight request failed during shutdown: %v", res.err)
	}
	if res.status != http.StatusOK {
		t.Fatalf("in-flight request got %d, want 200", res.status)
	}
}

func TestNewFailsOnMissingDir(t *testing.T) {
	if _, err := New(Config{ModelDir: "/nonexistent/model/dir"}); err == nil {
		t.Fatal("expected error for unreadable model dir")
	}
}

func TestRequestTimeoutReturns504(t *testing.T) {
	dir := t.TempDir()
	writeModelFile(t, dir, "m.json", testModel(2, 2))
	s, err := New(Config{
		ModelDir:       dir,
		RequestTimeout: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	res := <-postWithheld(t, ts.URL+"/v1/models/m/transform", nil).done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 on server-side deadline expiry", res.status)
	}
}

// TestDeadlineHeaderPropagates covers client deadline propagation: a
// small X-Request-Timeout-Ms budget beats the server's generous
// RequestTimeout, and the expiry surfaces as 504.
func TestDeadlineHeaderPropagates(t *testing.T) {
	dir := t.TempDir()
	writeModelFile(t, dir, "m.json", testModel(2, 2))
	s, err := New(Config{
		ModelDir:       dir,
		RequestTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	start := time.Now()
	res := <-postWithheld(t, ts.URL+"/v1/models/m/transform", http.Header{TimeoutHeader: {"40"}}).done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 from the propagated 40ms budget", res.status)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("request took %v: client budget was not propagated", elapsed)
	}
}

// TestWithheldBodyReleasesSlot is the regression test for a client that
// withholds its request body: the request deadline must bound the body
// read, so the request gets its 504 within RequestTimeout and gives its
// admission slot back for the next request.
func TestWithheldBodyReleasesSlot(t *testing.T) {
	const timeout = 100 * time.Millisecond
	dir := t.TempDir()
	writeModelFile(t, dir, "m.json", testModel(2, 2))
	s, err := New(Config{
		ModelDir:       dir,
		RequestTimeout: timeout,
		MaxInflight:    1,
		MaxQueue:       -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	p := postWithheld(t, ts.URL+"/v1/models/m/transform", nil)
	waitInflight(t, s, 1)
	start := time.Now()
	select {
	case res := <-p.done:
		if res.err != nil {
			t.Fatal(res.err)
		}
		if res.status != http.StatusGatewayTimeout {
			t.Fatalf("status = %d, want 504 for a withheld body", res.status)
		}
	case <-time.After(timeout + 2*time.Second):
		t.Fatal("a withheld body held its admission slot past RequestTimeout")
	}
	t.Logf("504 after %v", time.Since(start))
	waitInflight(t, s, 0)
	resp, body := postJSON(t, ts.URL+"/v1/models/m/transform", rowsRequest{Rows: [][]float64{{1, 2}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%s) after the slot was released, want 200", resp.StatusCode, body)
	}
}

// TestLateReplyKeepsConnectionUsable covers the connection after a
// request whose handler outlives its deadline: the read deadline that
// bounds a body must not reach net/http's background read of the
// connection, or every later request on it starts with a cancelled
// context and is shed with 503. A deadline that fired during the body
// read closes the connection instead.
func TestLateReplyKeepsConnectionUsable(t *testing.T) {
	const timeout = 100 * time.Millisecond
	dir := t.TempDir()
	writeModelFile(t, dir, "m.json", testModel(2, 2))
	s, err := New(Config{ModelDir: dir, RequestTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	late := func(w http.ResponseWriter, r *http.Request) {
		if r.Body != http.NoBody {
			req, err := s.decodeRows(w, r)
			if err != nil {
				s.writeError(w, err)
				return
			}
			req.release()
		}
		time.Sleep(3 * timeout)
		w.WriteHeader(http.StatusOK)
	}
	mux := http.NewServeMux()
	mux.Handle("/late", s.instrument("/late", true, late))
	mux.Handle("/", s.Handler())
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	const row = `{"rows":[[1,2]]}`
	send := func(conn net.Conn, br *bufio.Reader, method, path, body string, length int) *http.Response {
		t.Helper()
		req := fmt.Sprintf("%s %s HTTP/1.1\r\nHost: test\r\n", method, path)
		if length >= 0 {
			req += fmt.Sprintf("Content-Length: %d\r\n", length)
		}
		if _, err := io.WriteString(conn, req+"\r\n"+body); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp
	}
	for _, tc := range []struct {
		name, method, body string
		length             int
	}{
		{"full body", http.MethodPost, row, len(row)},
		{"no body", http.MethodGet, "", -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", ts.Listener.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			br := bufio.NewReader(conn)
			if resp := send(conn, br, tc.method, "/late", tc.body, tc.length); resp.StatusCode != http.StatusOK || resp.Close {
				t.Fatalf("late reply: status %d, close %v; want 200 on a kept connection", resp.StatusCode, resp.Close)
			}
			if resp := send(conn, br, http.MethodPost, "/v1/models/m/transform", row, len(row)); resp.StatusCode != http.StatusOK {
				t.Fatalf("next request on the connection: status %d, want 200", resp.StatusCode)
			}
		})
	}
	t.Run("withheld body", func(t *testing.T) {
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		resp := send(conn, bufio.NewReader(conn), http.MethodPost, "/v1/models/m/transform", row[:5], len(row))
		if resp.StatusCode != http.StatusGatewayTimeout || !resp.Close {
			t.Fatalf("withheld body: status %d, close %v; want 504 and a closed connection", resp.StatusCode, resp.Close)
		}
	})
}

// TestShedReturns429WithRetryAfter wedges the single admission slot and
// verifies the next request is shed with 429 + Retry-After instead of
// queueing (queueing disabled).
func TestShedReturns429WithRetryAfter(t *testing.T) {
	dir := t.TempDir()
	writeModelFile(t, dir, "m.json", testModel(2, 2))
	s, err := New(Config{
		ModelDir:       dir,
		RequestTimeout: 5 * time.Second,
		MaxInflight:    1,
		MaxQueue:       -1, // no queue: busy ⇒ shed
		RetryAfter:     2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// Occupy the only slot: this request waits for the rest of its body.
	p := postWithheld(t, ts.URL+"/v1/models/m/transform", nil)
	defer p.finish()
	waitInflight(t, s, 1)

	resp, body := postJSON(t, ts.URL+"/v1/models/m/transform", rowsRequest{Rows: [][]float64{{3, 4}}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d (%s), want 429 shed", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") != "2" {
		t.Fatalf("Retry-After = %q, want %q", resp.Header.Get("Retry-After"), "2")
	}
	// Health probes and metrics must bypass admission entirely.
	if resp, _ := getBody(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d while transform slot wedged, want 200", resp.StatusCode)
	}
	resp, mbody := getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d while transform slot wedged, want 200", resp.StatusCode)
	}
	for _, want := range []string{
		`ifair_admission_shed_total{path="/v1/models/transform",reason="queue_full"} 1`,
		"ifair_admission_queue_depth 0",
		"ifair_admission_inflight 1",
	} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestQueueWaitCapSheds503 fills the slot and bounds the queue wait: the
// queued request must come back 503 + Retry-After once the cap expires.
func TestQueueWaitCapSheds503(t *testing.T) {
	dir := t.TempDir()
	writeModelFile(t, dir, "m.json", testModel(2, 2))
	s, err := New(Config{
		ModelDir:       dir,
		RequestTimeout: 5 * time.Second,
		MaxInflight:    1,
		MaxQueue:       4,
		MaxQueueWait:   30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	p := postWithheld(t, ts.URL+"/v1/models/m/transform", nil)
	defer p.finish()
	waitInflight(t, s, 1)

	resp, body := postJSON(t, ts.URL+"/v1/models/m/transform", rowsRequest{Rows: [][]float64{{3, 4}}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d (%s), want 503 queue-time shed", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 shed response missing Retry-After")
	}
}

// TestMetricsReportReloadFailures wires the registry's failure counter
// through to /metrics: after a truncated hot-reload, the counter must be
// visible to scrapers while the model keeps serving.
func TestMetricsReportReloadFailures(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	// Truncate one model file and reload, as the Watch loop would.
	e, ok := s.Registry().Get("hiring")
	if !ok {
		t.Fatal("hiring model missing")
	}
	data, err := os.ReadFile(e.Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(e.Path, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Registry().Reload(); err == nil {
		t.Fatal("reload of truncated model reported no error")
	}
	if _, ok := s.Registry().Get("hiring"); !ok {
		t.Fatal("hiring model dropped despite last-good retention")
	}

	resp, body := getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "registry_reload_failures 1") {
		t.Fatalf("/metrics missing registry_reload_failures 1:\n%s", body)
	}
}
