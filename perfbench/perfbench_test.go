package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"

	"repro/internal/ingest"
)

func genBytes(t *testing.T, seed int64, spec csvSpec) ([]byte, csvCounts) {
	t.Helper()
	var buf bytes.Buffer
	c, err := writeCSV(&buf, seed, spec)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), c
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, wl := range workloads {
		spec := wl.train.CSV
		spec.Rows = 3000
		a, ca := genBytes(t, 7, spec)
		b, cb := genBytes(t, 7, spec)
		if !bytes.Equal(a, b) || ca != cb {
			t.Fatalf("%s: seed 7 generated different CSVs", wl.name)
		}
		if c, _ := genBytes(t, 8, spec); bytes.Equal(a, c) {
			t.Fatalf("%s: seeds 7 and 8 generated the same CSV", wl.name)
		}
	}
	rows := func(seed int64) [][]float64 { return genRows(rand.New(rand.NewSource(seed)), 64, 17) }
	if !reflect.DeepEqual(rows(3), rows(3)) || reflect.DeepEqual(rows(3), rows(4)) {
		t.Fatal("request rows are not a function of the seed")
	}
	due := func(seed int64) []time.Duration {
		return poissonSchedule(rand.New(rand.NewSource(seed)), 500, 2*time.Second)
	}
	if !reflect.DeepEqual(due(3), due(3)) || reflect.DeepEqual(due(3), due(4)) {
		t.Fatal("arrival schedule is not a function of the seed")
	}
	if n := len(due(3)); n < 850 || n > 1150 {
		t.Fatalf("500/s over 2s gave %d arrivals", n)
	}
}

// TestIngestCountsMatchGenerator checks the premise of the train-stream
// output check: every defect kind is quarantined and nothing else is.
func TestIngestCountsMatchGenerator(t *testing.T) {
	spec := csvSpec{Rows: 3000, Numeric: 4, DirtyRate: 0.2}
	data, c := genBytes(t, 5, spec)
	for k, n := range c.Kinds {
		if n == 0 {
			t.Fatalf("defect kind %s never drawn", defectKinds[k])
		}
	}
	res, err := ingest.Run(context.Background(), bytes.NewReader(data), ingest.Config{
		Dir:        t.TempDir(),
		Schema:     ingest.Schema{ProtectedIndex: []int{spec.Numeric}, Outcome: "label"},
		MaxBadRows: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if int(res.GoodRows) != c.Good || int(res.BadRows) != c.Bad || c.Good+c.Bad != spec.Rows {
		t.Fatalf("ingest counted %d good / %d bad, generator wrote %d / %d", res.GoodRows, res.BadRows, c.Good, c.Bad)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}, {1, 10}} {
		if got := percentile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 || median([]float64{3, 1, 2}) != 2 {
		t.Error("empty percentile or odd median wrong")
	}
}

func TestIntervalArithmetic(t *testing.T) {
	ivs := []interval{{10, 20}, {0, 5}, {15, 30}, {40, 40}}
	if got, want := union(ivs), []interval{{0, 5}, {10, 30}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("union = %v, want %v", got, want)
	}
	if got := covered(ivs); got != 25 {
		t.Fatalf("covered = %v, want 25", got)
	}
	// Parent [0,100) with children covering [10,30) and, overlapping, [20,50).
	if got := selfTime([]interval{{0, 100}}, []interval{{10, 30}}, []interval{{20, 50}, {120, 130}}); got != 60 {
		t.Fatalf("selfTime = %v, want 60", got)
	}
	if got := clip([]interval{{0, 10}, {5, 25}, {30, 40}}, interval{8, 20}); !reflect.DeepEqual(got, []interval{{8, 10}, {8, 20}}) {
		t.Fatalf("clip = %v", got)
	}
	if got := unaccounted(100, 40, 45); got != 0.15 {
		t.Fatalf("unaccounted = %v, want 0.15", got)
	}
	if got := unaccounted(100, 80, 30); got != -0.1 {
		t.Fatalf("unaccounted over the whole = %v, want -0.1", got)
	}
}

func TestPhaseStatistics(t *testing.T) {
	// 3000 requests, one per ms; 100 of them hit a stall.
	p := &phaseResult{elapsed: 3 * time.Second}
	for i := 0; i < 3000; i++ {
		due := time.Duration(i) * time.Millisecond
		lat := 2 * time.Millisecond
		if i >= 1000 && i < 1100 {
			lat = 50 * time.Millisecond
		}
		p.outcomes = append(p.outcomes, outcome{due: due, sent: due, done: due + lat, ok: true})
	}
	// The stall holds 100 of 3000 requests: above the 90th percentile,
	// inside the 99th.
	if got := percentile(p.latenciesMS(), 0.90); got != 2 {
		t.Fatalf("p90 = %v, want 2", got)
	}
	if got := percentile(p.latenciesMS(), 0.99); got != 50 {
		t.Fatalf("p99 = %v, want 50", got)
	}
	// Done offsets run to 3.002s: the three whole seconds complete
	// 998..1000 requests each.
	if got := p.capacity(); got < 998 || got > 1000 {
		t.Fatalf("capacity = %v", got)
	}
	p.outcomes[0].ok = false
	if _, ok, failed := p.counts(); ok != 2999 || failed != 1 {
		t.Fatalf("counts ok=%d failed=%d", ok, failed)
	}
	if got := p.latenciesMS()[0]; got != 3000 {
		t.Fatalf("a failed request's latency = %v ms, want the whole phase", got)
	}
}

// fakeRun builds the untraced and traced pass results and layer times a
// real run would hand to endToEnd and perLayer.
func fakeRun() (*bench, *passResult, *passResult, *layerTimes) {
	phase := func() *phaseResult {
		p := &phaseResult{elapsed: 2 * time.Second}
		for i := 0; i < 2000; i++ {
			d := time.Duration(i) * time.Millisecond
			p.outcomes = append(p.outcomes, outcome{due: d, sent: d, done: d + time.Millisecond, ok: true})
		}
		return p
	}
	rec := newRecorder()
	tt := &trainTrace{
		rec:    rec,
		ingest: &fsStats{rec: rec, layer: "ingest"},
		stream: &fsStats{rec: rec, layer: "stream"},
		ckpt:   &fsStats{rec: rec, layer: "checkpoint"},
		fit:    &fitTrace{rec: rec},
	}
	tt.fit.RestartStart(0)
	rec.add("stream.read", 0, 10)
	tr := &trainRun{
		Result:     &ingest.Result{InputRows: 100, GoodRows: 98, BadRows: 2, Shards: 1},
		IngestWall: time.Second, FitWall: 2 * time.Second, Setup: time.Millisecond,
		trace: tt,
	}
	pass := func() *passResult {
		return &passResult{
			trainSetup: []time.Duration{time.Millisecond}, serveSetup: []time.Duration{time.Millisecond},
			ingestRates: []float64{100}, fitWalls: []time.Duration{time.Second}, loss: 1,
			open: phase(), closed: phase(), attempted: 10, train: tr,
			metrics: map[string]float64{"ifair_batch_size_sum": 6, "ifair_batch_size_count": 3},
		}
	}
	d := []time.Duration{time.Microsecond}
	lt := &layerTimes{handler: d, codec: d, kernel: d, batcher: d, admit: d}
	return &bench{wl: workloads[0]}, pass(), pass(), lt
}

// TestMetricNames checks that both kinds of run print exactly the
// metrics BENCHMARK.json declares, with its units, under valid names.
func TestMetricNames(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	b, plain, traced, lt := fakeRun()
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, c := range []struct {
		kind string
		got  metrics
		want []struct{ Name, Unit string }
	}{
		{"end_to_end", endToEnd(plain), decl.EndToEnd},
		{"per_layer", perLayer(b, plain, traced, lt, result{Attempted: 10}), decl.PerLayer},
	} {
		var got, want []string
		for name, m := range c.got {
			if !valid.MatchString(name) {
				t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", name)
			}
			got = append(got, name+" "+m.Unit)
		}
		for _, d := range c.want {
			want = append(want, d.Name+" "+d.Unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s metrics printed:\n%v\ndeclared:\n%v", c.kind, got, want)
		}
	}
}

// TestLoadPhases drives the open and closed loops and the queue-depth
// sampler against a fake server, from several goroutines at once.
func TestLoadPhases(t *testing.T) {
	r := &request{body: []byte(`{"rows":[[1]]}`), want: [][]float64{{0.5}}}
	var resp bytes.Buffer
	if err := json.NewEncoder(&resp).Encode(transformResponse{Model: modelName, Version: 1, Rows: r.want}); err != nil {
		t.Fatal(err)
	}
	r.resp = resp.Bytes()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch req.URL.Path {
		case "/metrics":
			fmt.Fprintln(w, "# HELP ignored\nifair_admission_queue_depth 3")
		case "/reformatted":
			fmt.Fprintln(w, `{"rows": [[5e-1]]}`)
		case "/wrong":
			fmt.Fprintln(w, `{"rows":[[0.5000000000000001]]}`)
		default:
			w.Write(r.resp)
		}
	}))
	defer srv.Close()
	client := loadClient(2)
	defer client.CloseIdleConnections()
	ctx := context.Background()
	reqs := []*request{r}

	stop := sampleQueueDepth(srv.URL)
	due := poissonSchedule(rand.New(rand.NewSource(1)), 2000, 300*time.Millisecond)
	open := openLoop(ctx, client, srv.URL+"/ok", reqs, due)
	if sent, ok, _ := open.counts(); sent != len(due) || ok != sent {
		t.Fatalf("open loop: %d of %d ok, %d due", ok, sent, len(due))
	}
	closed := closedLoop(ctx, client, srv.URL+"/ok", reqs, 2, 200*time.Millisecond)
	if _, ok, failed := closed.counts(); ok == 0 || failed != 0 {
		t.Fatalf("closed loop: %d ok, %d failed", ok, failed)
	}
	if peak := stop(); peak != 3 {
		t.Fatalf("queue depth peak = %v, want 3", peak)
	}
	var buf bytes.Buffer
	if !send(ctx, client, srv.URL+"/reformatted", r, &buf) {
		t.Error("the same floats written differently failed the check")
	}
	if send(ctx, client, srv.URL+"/wrong", r, &buf) {
		t.Error("a value one ulp off passed the check")
	}
}
