package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/drift"
	"repro/internal/ifair"
	"repro/internal/ingest"
	"repro/internal/knn"
	"repro/internal/mat"
	"repro/internal/optimize"
)

// trainSpec is one training configuration: the generated CSV and the
// NeighborFairness SGD options cmd/ifair would be given for it.
type trainSpec struct {
	CSV         csvSpec
	K           int
	BatchSize   int
	Epochs      int
	PairSamples int
	NeighborK   int
}

// trainRun is what one pass of the training pipeline measured.
type trainRun struct {
	Result     *ingest.Result
	Model      *ifair.Model
	Profile    *drift.Profile
	IngestWall time.Duration // ingest.Run
	FitWall    time.Duration // ingest.OpenStream + ifair.FitStreamContext
	Setup      time.Duration // checkpoint.Open + ingest.OpenStream

	trace *trainTrace // nil when untraced
}

// trainTrace holds the spans and counters of one traced training pass.
type trainTrace struct {
	rec     *recorder
	ingest  *fsStats
	stream  *fsStats
	ckpt    *fsStats
	observe atomic.Int64 // ns inside ProfileBuilder.ObserveRow

	openSpan, fitSpan  interval
	fit                *fitTrace
	knnBuild, knnQuery time.Duration
}

// runTrain runs the pipeline of `ifair -input <csv> -ingest <store>
// -max-bad-rows -1 -save-profile … -checkpoint <dir>` once, in fresh
// directories under dir: ingest.Run with a drift.ProfileBuilder observer,
// then, when fit is set, checkpoint.Open, ingest.OpenStream and
// ifair.FitStreamContext. With traced set, every filesystem call,
// observer call and training event is timed through the benchmark's own
// wrappers.
func runTrain(ctx context.Context, dir, csvPath string, spec trainSpec, seed int64, workers int, traced, fit bool) (*trainRun, error) {
	storeDir := filepath.Join(dir, "store")
	ckptDir := filepath.Join(dir, "ckpt")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	run := &trainRun{}
	var ingFS, streamFS, ckptFS checkpoint.FS
	var observer ingest.RowObserver
	builder := drift.NewProfileBuilder(0, drift.DefaultReferenceRows, seed)
	observer = builder
	var tt *trainTrace
	if traced {
		rec := newRecorder()
		tt = &trainTrace{rec: rec, fit: &fitTrace{rec: rec}}
		tt.ingest = &fsStats{rec: rec, layer: "ingest"}
		tt.stream = &fsStats{rec: rec, layer: "stream"}
		tt.ckpt = &fsStats{rec: rec, layer: "checkpoint"}
		ingFS = &tracedFS{inner: checkpoint.OSFS{}, st: tt.ingest}
		streamFS = &tracedFS{inner: checkpoint.OSFS{}, st: tt.stream}
		ckptFS = &tracedFS{inner: checkpoint.OSFS{}, st: tt.ckpt}
		observer = &timedObserver{inner: builder, ns: &tt.observe}
		run.trace = tt
	}

	f, err := os.Open(csvPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cfg := ingest.Config{
		Dir:        storeDir,
		FS:         ingFS,
		Schema:     ingest.Schema{ProtectedIndex: []int{spec.CSV.Numeric}, Outcome: "label"},
		MaxBadRows: -1,
		Observer:   observer,
	}
	t0 := time.Now()
	res, err := ingest.Run(ctx, f, cfg)
	run.IngestWall = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	run.Result = res
	if !fit {
		return run, nil
	}

	t1 := time.Now()
	mgr, err := openCheckpoint(ckptDir, ckptFS)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	st, err := ingest.OpenStream(storeDir, streamFS)
	if err != nil {
		return nil, err
	}
	t3 := time.Now()
	run.Setup = t3.Sub(t2) + t2.Sub(t1)

	opts := ifair.Options{
		K:              spec.K,
		Lambda:         1,
		Mu:             1,
		Protected:      st.ProtectedCols(),
		Init:           ifair.InitMaskedProtected,
		Fairness:       ifair.NeighborFairness,
		PairSamples:    spec.PairSamples,
		NeighborK:      spec.NeighborK,
		BatchSize:      spec.BatchSize,
		Epochs:         spec.Epochs,
		Restarts:       workers,
		RestartWorkers: workers,
		Seed:           seed,
		Checkpoint:     mgr,
	}
	if tt != nil {
		opts.Trace = tt.fit
	}
	fitStart := time.Now()
	model, x, err := ifair.FitStreamContext(ctx, st, opts)
	fitEnd := time.Now()
	run.FitWall = fitEnd.Sub(t2)
	if err != nil {
		return nil, fmt.Errorf("fit: %w", err)
	}
	run.Model = model
	means, stds := st.MeanStd()
	if run.Profile, err = builder.Build(means, stds); err != nil {
		return nil, err
	}
	if tt != nil {
		at := func(t time.Time) int64 { return int64(t.Sub(tt.rec.t0)) }
		tt.openSpan = interval{at(t2), at(t3)}
		tt.fitSpan = interval{at(fitStart), at(fitEnd)}
		tt.knnBuild, tt.knnQuery = timeKNN(x, opts.Protected, spec.NeighborK, opts.Workers)
	}
	return run, nil
}

// openCheckpoint opens a snapshot directory with the settings of
// cmd/ifair's -checkpoint flag defaults.
func openCheckpoint(dir string, fsys checkpoint.FS) (*checkpoint.Manager, error) {
	return checkpoint.Open(checkpoint.Config{Dir: dir, FS: fsys, EveryIterations: 50})
}

// timeKNN times an isolated kd-tree build and all-neighbours query over
// the non-protected columns of the standardised training matrix: the
// index FitStream builds during its shard sweep.
func timeKNN(x *mat.Dense, protected []int, k, workers int) (build, query time.Duration) {
	rows, cols := x.Dims()
	isProt := make([]bool, cols)
	for _, p := range protected {
		isProt[p] = true
	}
	var keep []int
	for j := 0; j < cols; j++ {
		if !isProt[j] {
			keep = append(keep, j)
		}
	}
	proj := mat.NewDense(rows, len(keep))
	for i := 0; i < rows; i++ {
		src, dst := x.Row(i), proj.Row(i)
		for c, j := range keep {
			dst[c] = src[j]
		}
	}
	t0 := time.Now()
	tree := knn.NewKDTree(proj)
	t1 := time.Now()
	tree.AllNeighborsWorkers(k, workers)
	return t1.Sub(t0), time.Since(t1)
}

// fsStats accumulates the spans and byte counts of one filesystem
// wrapper. Operations are recorded as "<layer>.write" (create, write,
// close), "<layer>.fsync" (file and directory sync), "<layer>.rename",
// "<layer>.read" and "<layer>.other".
type fsStats struct {
	rec   *recorder
	layer string

	mu         sync.Mutex
	creates    int
	bytes      int64
	quarantine int64
}

// since records an operation that began at start and ends now.
func (s *fsStats) since(op string, start int64) {
	s.rec.add(s.layer+"."+op, start, s.rec.now())
}

// all returns the spans of every operation of the wrapper.
func (s *fsStats) all() []interval {
	return union(s.spans("write"), s.spans("fsync"), s.spans("rename"), s.spans("read"), s.spans("other"))
}

// total is the time spent in every operation of the wrapper.
func (s *fsStats) total() time.Duration { return covered(s.all()) }

func (s *fsStats) spans(op string) []interval { return s.rec.get(s.layer + "." + op) }

// tracedFS times every call into a checkpoint.FS.
type tracedFS struct {
	inner checkpoint.FS
	st    *fsStats
}

func (t *tracedFS) MkdirAll(dir string, perm fs.FileMode) error {
	defer t.st.since("other", t.st.rec.now())
	return t.inner.MkdirAll(dir, perm)
}

func (t *tracedFS) Create(name string) (checkpoint.File, error) {
	defer t.st.since("write", t.st.rec.now())
	f, err := t.inner.Create(name)
	if err != nil {
		return nil, err
	}
	t.st.mu.Lock()
	t.st.creates++
	t.st.mu.Unlock()
	quarantine := strings.HasPrefix(filepath.Base(name), "quarantine")
	return &tracedFile{inner: f, st: t.st, quarantine: quarantine}, nil
}

func (t *tracedFS) Rename(oldpath, newpath string) error {
	defer t.st.since("rename", t.st.rec.now())
	return t.inner.Rename(oldpath, newpath)
}

func (t *tracedFS) Remove(name string) error {
	defer t.st.since("other", t.st.rec.now())
	return t.inner.Remove(name)
}

func (t *tracedFS) ReadDir(dir string) ([]fs.DirEntry, error) {
	defer t.st.since("other", t.st.rec.now())
	return t.inner.ReadDir(dir)
}

func (t *tracedFS) ReadFile(name string) ([]byte, error) {
	defer t.st.since("read", t.st.rec.now())
	return t.inner.ReadFile(name)
}

func (t *tracedFS) SyncDir(dir string) error {
	defer t.st.since("fsync", t.st.rec.now())
	return t.inner.SyncDir(dir)
}

// tracedFile times writes, syncs and the close of one created file.
type tracedFile struct {
	inner      checkpoint.File
	st         *fsStats
	quarantine bool
}

func (f *tracedFile) Write(p []byte) (int, error) {
	defer f.st.since("write", f.st.rec.now())
	n, err := f.inner.Write(p)
	f.st.mu.Lock()
	f.st.bytes += int64(n)
	if f.quarantine {
		f.st.quarantine += int64(n)
	}
	f.st.mu.Unlock()
	return n, err
}

func (f *tracedFile) Sync() error {
	defer f.st.since("fsync", f.st.rec.now())
	return f.inner.Sync()
}

func (f *tracedFile) Close() error {
	defer f.st.since("write", f.st.rec.now())
	return f.inner.Close()
}

// timedObserver accumulates the time spent in the wrapped observer.
// Per-row spans would cost more than the call they time, so the
// observer keeps a running total instead.
type timedObserver struct {
	inner ingest.RowObserver
	ns    *atomic.Int64
}

func (o *timedObserver) ObserveRow(row []float64) {
	t := time.Now()
	o.inner.ObserveRow(row)
	o.ns.Add(int64(time.Since(t)))
}

// fitTrace implements ifair.Trace: it records each restart's start, its
// iteration (epoch) boundaries and the evaluation counts it reports.
type fitTrace struct {
	rec *recorder

	mu     sync.Mutex
	starts map[int]int64
	last   map[int]int64
	epochs []time.Duration
	evals  int
	iters  int
}

func (t *fitTrace) RestartStart(r int) {
	now := t.rec.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.starts == nil {
		t.starts, t.last = map[int]int64{}, map[int]int64{}
	}
	t.starts[r], t.last[r] = now, now
}

func (t *fitTrace) Iteration(r int, _ optimize.Iteration) {
	now := t.rec.now()
	t.mu.Lock()
	prev := t.last[r]
	t.last[r] = now
	t.epochs = append(t.epochs, time.Duration(now-prev))
	t.iters++
	t.mu.Unlock()
	t.rec.add("optimize.epoch", prev, now)
}

func (t *fitTrace) RestartEnd(_ int, res optimize.Result, _ error) {
	t.mu.Lock()
	t.evals += res.Evals
	t.mu.Unlock()
}

// firstStart returns the earliest RestartStart offset.
func (t *fitTrace) firstStart() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	first := int64(-1)
	for _, s := range t.starts {
		if first < 0 || s < first {
			first = s
		}
	}
	return first
}
