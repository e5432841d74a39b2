package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// result is the last line the benchmark prints.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// envRecord names the environment a result was measured in.
type envRecord struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
}

// record is printed on the line before the result: the environment and
// the sample counts behind the metrics.
type record struct {
	Record  envRecord      `json:"record"`
	Samples map[string]int `json:"samples"`
}

func secs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// latenciesMS returns each request's latency from its due time in ms.
// A failed request counts as the whole phase, so it misses any limit.
func (p *phaseResult) latenciesMS() []float64 {
	out := make([]float64, len(p.outcomes))
	for i, o := range p.outcomes {
		d := o.done - o.due
		if !o.ok {
			d = p.elapsed
		}
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// rttUS returns each successful request's round trip, send to response,
// in µs.
func (p *phaseResult) rttUS() []float64 {
	var out []float64
	for _, o := range p.outcomes {
		if o.ok {
			out = append(out, float64(o.done-o.sent)/float64(time.Microsecond))
		}
	}
	return out
}

// lateMS returns how late the generator sent each request, in ms.
func (p *phaseResult) lateMS() []float64 {
	out := make([]float64, len(p.outcomes))
	for i, o := range p.outcomes {
		out[i] = float64(o.sent-o.due) / float64(time.Millisecond)
	}
	return out
}

// capacity is the median, over the phase's whole seconds, of the
// requests completed per second in a closed-loop phase: one stalled
// second does not move it.
func (p *phaseResult) capacity() float64 {
	n := max(int(p.elapsed/time.Second), 1)
	per := make([]float64, n)
	for _, o := range p.outcomes {
		if k := int(o.done / time.Second); o.ok && k < n {
			per[k]++
		}
	}
	return median(per)
}

// endToEnd computes the end-to-end metrics of an untraced pass.
func endToEnd(p *passResult) metrics {
	m := metrics{}
	m.set("setup_s", median(secs(p.serveSetup))+median(secs(p.trainSetup)), "s")
	lat := p.open.latenciesMS()
	m.set("p50_ms", percentile(lat, 0.5), "ms")
	m.set("capacity_rps", p.closed.capacity(), "1/s")
	m.set("success_ratio", float64(p.attempted-p.failed)/float64(p.attempted), "ratio")
	m.set("rss_peak_mb", (p.trainRSS+p.serveRSS)/1000, "MB")
	m.set("ingest_rows_per_s", median(p.ingestRates), "1/s")
	m.set("fit_s", median(secs(p.fitWalls)), "s")
	m.set("final_loss", p.loss, "loss")
	return m
}

// perLayer computes the per-layer metrics from the traced pass, the
// in-process layer replays and, for the overhead and reconciliation,
// the untraced pass.
func perLayer(b *bench, plain, traced *passResult, lt *layerTimes, res result) metrics {
	m := metrics{}
	us := func(ds []time.Duration, q float64) float64 { return percentile(durationsUS(ds), q) }

	// Serving.
	handler50 := us(lt.handler, 0.5)
	codec50, kernel50, admit50 := us(lt.codec, 0.5), us(lt.kernel, 0.5), us(lt.admit, 0.5)
	batcher50 := us(lt.batcher, 0.5)
	net50 := percentile(traced.open.rttUS(), 0.5) - handler50
	m.set("server.handler_us.p50", handler50, "us")
	m.set("server.handler_us.p99", us(lt.handler, 0.99), "us")
	m.set("server.codec_us.p50", codec50, "us")
	m.set("server.allocs_per_req", lt.allocs, "count")
	m.set("server.bytes_per_req", lt.bytes, "B")
	_, okOpen, _ := traced.open.counts()
	_, okClosed, _ := traced.closed.counts()
	m.set("server.cpu_us_per_req", float64(traced.serverCPU)/float64(time.Microsecond)/float64(max(okOpen+okClosed, 1)), "us")
	m.set("net.overhead_us.p50", net50, "us")
	m.set("kernel.transform_us.p50", kernel50, "us")
	m.set("batcher.row_us.p50", batcher50, "us")
	m.set("batcher.row_us.p99", us(lt.batcher, 0.99), "us")
	flushRows := 0.0
	if n := traced.metrics["ifair_batch_size_count"]; n > 0 {
		flushRows = traced.metrics["ifair_batch_size_sum"] / n
	}
	m.set("batcher.rows_per_flush", flushRows, "count")
	m.set("admission.acquire_us.p50", admit50, "us")
	m.set("admission.shed", sumPrefix(traced.metrics, "ifair_admission_shed_total"), "count")
	m.set("admission.queued", traced.queuePeak, "count")
	tail := traced.open.latenciesMS()
	m.set("loadgen.p90_ms", percentile(tail, 0.90), "ms")
	m.set("loadgen.p99_ms", percentile(tail, 0.99), "ms")
	m.set("loadgen.late_p99_ms", percentile(traced.open.lateMS(), 0.99), "ms")
	for _, ph := range []struct {
		name string
		p    *phaseResult
	}{{"open", traced.open}, {"closed", traced.closed}} {
		sent, ok, failed := ph.p.counts()
		m.set("loadgen."+ph.name+".sent", float64(sent), "count")
		m.set("loadgen."+ph.name+".ok", float64(ok), "count")
		m.set("loadgen."+ph.name+".failed", float64(failed), "count")
	}
	// A single-row request's kernel call happens inside the batcher's
	// flush, so only the batcher's time beyond the kernel is its own.
	batcherSelf := 0.0
	if lt.batcher != nil {
		batcherSelf = max(batcher50-kernel50, 0)
	}
	e2eP50 := percentile(plain.open.latenciesMS(), 0.5) * 1000
	m.set("server.unaccounted_frac", unaccounted(e2eP50, net50, admit50, codec50, kernel50, batcherSelf), "frac")

	// Training.
	tr := traced.train
	tt := tr.trace
	observe := time.Duration(tt.observe.Load())
	m.set("ingest.fs_write_s", covered(tt.ingest.spans("write")).Seconds(), "s")
	m.set("ingest.fsync_s", covered(tt.ingest.spans("fsync")).Seconds(), "s")
	m.set("ingest.rename_s", covered(tt.ingest.spans("rename")).Seconds(), "s")
	m.set("ingest.parse_encode_s", (tr.IngestWall - tt.ingest.total() - observe).Seconds(), "s")
	m.set("ingest.shards", float64(tr.Result.Shards), "count")
	m.set("ingest.bytes_written", float64(tt.ingest.bytes), "B")
	m.set("ingest.quarantine_bytes_written", float64(tt.ingest.quarantine), "B")
	streamRead := tt.stream.total()
	m.set("ingest.stream_read_s", streamRead.Seconds(), "s")
	m.set("drift.observe_s", observe.Seconds(), "s")
	m.set("knn.build_s", tt.knnBuild.Seconds(), "s")
	m.set("knn.query_s", tt.knnQuery.Seconds(), "s")

	fitWindow := interval{tt.openSpan.start, tt.fitSpan.end}
	ckpt := clip(tt.ckpt.all(), fitWindow)
	prep := selfTime([]interval{{tt.fitSpan.start, tt.fit.firstStart()}}, tt.stream.all(), ckpt)
	epochs := selfTime(tt.rec.get("optimize.epoch"), ckpt)
	m.set("ifair.prep_s", prep.Seconds(), "s")
	m.set("ifair.pairs_s", (prep - tt.knnBuild - tt.knnQuery).Seconds(), "s")
	m.set("optimize.epoch_s.p50", median(secs(tt.fit.epochs)), "s")
	m.set("optimize.epochs", float64(tt.fit.iters), "count")
	m.set("optimize.evals", float64(tt.fit.evals), "count")
	m.set("checkpoint.write_s", tt.ckpt.total().Seconds(), "s")
	m.set("checkpoint.writes", float64(tt.ckpt.creates), "count")
	m.set("checkpoint.bytes", float64(tt.ckpt.bytes), "B")
	m.set("train.unaccounted_frac", unaccounted((tr.IngestWall+tr.FitWall).Seconds(),
		tr.IngestWall.Seconds(), streamRead.Seconds(), prep.Seconds(), epochs.Seconds(), covered(ckpt).Seconds()), "frac")

	// Tracing overhead on the workload's main phase: training wall time
	// for the training workload, time per request at capacity for the
	// serving workloads.
	overhead := plain.closed.capacity()/traced.closed.capacity() - 1
	if b.wl.trainFocus {
		untraced := median(secs(plain.fitWalls)) + float64(plain.train.Result.InputRows)/median(plain.ingestRates)
		overhead = (tr.IngestWall+tr.FitWall).Seconds()/untraced - 1
	}
	m.set("trace.overhead_frac", overhead, "frac")
	m.set("fail_ratio", float64(res.Failed)/float64(res.Attempted), "frac")
	return m
}

// clip cuts every interval down to the part inside w.
func clip(ivs []interval, w interval) []interval {
	var out []interval
	for _, iv := range ivs {
		lo, hi := max(iv.start, w.start), min(iv.end, w.end)
		if hi > lo {
			out = append(out, interval{lo, hi})
		}
	}
	return out
}

// samples names the sample count behind each end-to-end metric.
func samples(p *passResult) map[string]int {
	return map[string]int{
		"server_starts":   len(p.serveSetup),
		"train_setups":    len(p.trainSetup),
		"open_requests":   len(p.open.outcomes),
		"closed_requests": len(p.closed.outcomes),
		"ingest_passes":   len(p.ingestRates),
		"fit_passes":      len(p.fitWalls),
	}
}

// environment records where and on what the benchmark ran.
func environment(seed int64, wl string, seconds, trace int) envRecord {
	return envRecord{
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		Commit:     gitCommit(),
		SourceHash: sourceHash("."),
		Workload:   wl,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
	}
}

// cpuModel returns the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from .git when the benchmark runs in a git
// checkout, and returns "none" otherwise.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	id, err := os.ReadFile(filepath.Join(".git", ref))
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(id))
}

// sourceHash digests the path and contents of every Go source and module
// file under root, skipping hidden directories, so a result names the
// exact code it measured even outside a git checkout.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// logSummary prints the metrics one per line for a reader.
func logSummary(w io.Writer, wl string, m metrics) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s  %-34s %14.6g %s\n", wl, name, m[name].Value, m[name].Unit)
	}
}

// savedOutput is one saved benchmark output: its record and result.
type savedOutput struct {
	rec record
	res result
}

func readOutput(path string) (*savedOutput, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out savedOutput
	var haveRec, haveRes bool
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var probe map[string]json.RawMessage
		if json.Unmarshal([]byte(line), &probe) != nil {
			continue
		}
		switch {
		case probe["record"] != nil:
			haveRec = json.Unmarshal([]byte(line), &out.rec) == nil
		case probe["metrics"] != nil:
			haveRes = json.Unmarshal([]byte(line), &out.res) == nil
		}
	}
	if !haveRec || !haveRes {
		return nil, fmt.Errorf("%s: no benchmark record and result", path)
	}
	return &out, nil
}

// compareOutputs prints each metric of two saved outputs side by side.
// Results measured in different environments are flagged before and
// after the table, and the comparison then fails.
func compareOutputs(w io.Writer, pathA, pathB string) error {
	a, err := readOutput(pathA)
	if err != nil {
		return err
	}
	b, err := readOutput(pathB)
	if err != nil {
		return err
	}
	ea, eb := a.rec.Record, b.rec.Record
	var diffs []string
	for _, d := range []struct{ name, a, b string }{
		{"go", ea.Go, eb.Go},
		{"gomaxprocs", fmt.Sprint(ea.GOMAXPROCS), fmt.Sprint(eb.GOMAXPROCS)},
		{"nproc", fmt.Sprint(ea.NProc), fmt.Sprint(eb.NProc)},
		{"cpu", ea.CPU, eb.CPU},
		{"workload", ea.Workload, eb.Workload},
		{"seconds", fmt.Sprint(ea.Seconds), fmt.Sprint(eb.Seconds)},
		{"trace", fmt.Sprint(ea.Trace), fmt.Sprint(eb.Trace)},
	} {
		if d.a != d.b {
			diffs = append(diffs, fmt.Sprintf("  %s: %q vs %q", d.name, d.a, d.b))
		}
	}
	banner := func() {
		if len(diffs) > 0 {
			fmt.Fprintln(w, "!!!!!!!! CROSS-ENVIRONMENT COMPARISON: these results are not comparable !!!!!!!!")
			for _, d := range diffs {
				fmt.Fprintln(w, d)
			}
		}
	}
	banner()
	fmt.Fprintf(w, "A: commit %s source %.12s seed %d\nB: commit %s source %.12s seed %d\n",
		ea.Commit, ea.SourceHash, ea.Seed, eb.Commit, eb.SourceHash, eb.Seed)
	names := make([]string, 0, len(a.res.Metrics))
	for name := range a.res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ma := a.res.Metrics[name]
		mb, ok := b.res.Metrics[name]
		if !ok {
			fmt.Fprintf(w, "%-34s %14.6g %s  (missing in B)\n", name, ma.Value, ma.Unit)
			continue
		}
		change := ""
		if ma.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(mb.Value-ma.Value)/ma.Value)
		}
		fmt.Fprintf(w, "%-34s %14.6g %14.6g %-6s %s\n", name, ma.Value, mb.Value, ma.Unit, change)
	}
	banner()
	if len(diffs) > 0 {
		return errors.New("cross-environment comparison")
	}
	return nil
}
