package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"repro/internal/drift"
	"repro/internal/ifair"
	"repro/internal/ingest"
)

// passResult is one pass over a workload: training, server start-up and
// the load phases.
type passResult struct {
	trainSetup, serveSetup []time.Duration
	ingestRates            []float64 // input rows/s per ingest pass
	fitWalls               []time.Duration
	loss                   float64
	trainRSS, serveRSS     float64 // peak RSS in kB
	warm, open, closed     *phaseResult
	attempted, failed      int
	train                  *trainRun // the last full training pass
	reqs                   []*request

	// Traced passes only.
	serverCPU time.Duration // child CPU during the open and closed phases
	metrics   map[string]float64
	queuePeak float64 // highest ifair_admission_queue_depth sampled
}

func (p *passResult) check(ok bool, format string, args ...any) {
	p.attempted++
	if !ok {
		p.failed++
		stderrf("check failed: "+format, args...)
	}
}

// pass runs the workload once. An untraced pass repeats ingest and
// training as the workload says; a traced pass makes one of each through
// the timing wrappers.
func (b *bench) pass(ctx context.Context, traced bool) (*passResult, error) {
	p := &passResult{}
	ingestReps, fitReps := b.wl.ingestReps, b.wl.fitReps
	if traced {
		ingestReps, fitReps = 1, 1
	}
	trainDir := filepath.Join(b.dir, "train")
	for i := 0; i < max(ingestReps, fitReps); i++ {
		fit := i < fitReps
		runtime.GC() // start every pass from the same heap
		tr, err := runTrain(ctx, trainDir, b.csvPath, b.wl.train, b.seed, nproc(), traced, fit)
		if err != nil {
			return nil, err
		}
		r := tr.Result
		p.check(int(r.GoodRows) == b.counts.Good && int(r.BadRows) == b.counts.Bad && int(r.InputRows) == b.counts.Good+b.counts.Bad,
			"ingest counted %d good / %d bad rows, generator wrote %d / %d", r.GoodRows, r.BadRows, b.counts.Good, b.counts.Bad)
		p.ingestRates = append(p.ingestRates, float64(r.InputRows)/tr.IngestWall.Seconds())
		if !fit {
			continue
		}
		if p.train != nil {
			p.check(math.Float64bits(tr.Model.Loss) == math.Float64bits(p.loss),
				"final loss %v differs from the first pass's %v", tr.Model.Loss, p.loss)
		}
		p.loss = tr.Model.Loss
		p.fitWalls = append(p.fitWalls, tr.FitWall)
		p.trainSetup = append(p.trainSetup, tr.Setup)
		p.train = tr
	}
	stderrf("%s: fit passes %v; ingest rows/s %.0f", b.wl.name, p.fitWalls, p.ingestRates)
	if err := b.checkLossRecord(p); err != nil {
		return nil, err
	}
	for len(p.trainSetup) < setupReps {
		d, err := timeTrainSetup(filepath.Join(trainDir, "store"), filepath.Join(trainDir, "ckpt-setup"))
		if err != nil {
			return nil, err
		}
		p.trainSetup = append(p.trainSetup, d)
	}
	var err error
	if p.trainRSS, err = procStatusKB(os.Getpid(), "VmHWM"); err != nil {
		return nil, err
	}
	if err := b.saveModel(p.train); err != nil {
		return nil, err
	}
	if p.reqs, err = b.requests(p.train.Model); err != nil {
		return nil, err
	}
	return p, b.serve(ctx, p, traced)
}

// checkLossRecord compares the final loss with the one an earlier run
// of the same code, workload and seed recorded, and records it when none
// exists: one seed must always train to the same loss.
func (b *bench) checkLossRecord(p *passResult) error {
	path := b.lossRecord
	got := strconv.FormatUint(math.Float64bits(p.loss), 16)
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		p.check(string(raw) == got, "final loss bits %s differ from an earlier run's %s", got, raw)
		return nil
	case !os.IsNotExist(err):
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(got), 0o644)
}

// saveModel writes the trained model where the server loads it and the
// drift profile beside the work directory, as ifair -save and
// -save-profile would.
func (b *bench) saveModel(tr *trainRun) error {
	if err := os.MkdirAll(b.modelsDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(b.modelsDir, modelName+".json"))
	if err != nil {
		return err
	}
	if err := tr.Model.Encode(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return drift.SaveProfile(filepath.Join(b.dir, modelName+".profile"), tr.Profile)
}

// requests builds the seeded request set and, from the model itself,
// the response each request must get.
func (b *bench) requests(model *ifair.Model) ([]*request, error) {
	rng := rand.New(rand.NewSource(b.seed ^ 0x72657173)) // "reqs"
	reqs := make([]*request, requestSet)
	for i := range reqs {
		rows := genRows(rng, b.wl.rowsPerReq, model.Dims())
		want := make([][]float64, len(rows))
		for j, row := range rows {
			out, err := model.TransformRowChecked(row)
			if err != nil {
				return nil, err
			}
			want[j] = out
		}
		body, err := json.Marshal(struct {
			Rows [][]float64 `json:"rows"`
		}{rows})
		if err != nil {
			return nil, err
		}
		var resp bytes.Buffer
		if err := json.NewEncoder(&resp).Encode(transformResponse{Model: modelName, Version: 1, Rows: want}); err != nil {
			return nil, err
		}
		reqs[i] = &request{body: body, rows: rows, want: want, resp: resp.Bytes()}
	}
	return reqs, nil
}

// serve starts the server setupReps times, keeps the last one, and runs
// the warm-up, open-loop and closed-loop phases against it.
func (b *bench) serve(ctx context.Context, p *passResult, traced bool) error {
	logf, err := os.Create(filepath.Join(b.dir, "server.log"))
	if err != nil {
		return err
	}
	defer logf.Close()
	var c *child
	for i := 0; i < setupReps; i++ {
		if c != nil {
			c.stop()
		}
		var d time.Duration
		if c, d, err = startServer(ctx, b.serverBin, b.modelsDir, logf); err != nil {
			return err
		}
		p.serveSetup = append(p.serveSetup, d)
	}
	defer c.stop()
	pid := c.cmd.Process.Pid
	debug.FreeOSMemory() // training garbage must not be collected under load
	client := loadClient(nproc())
	defer client.CloseIdleConnections()
	url := c.base + "/v1/models/" + modelName + "/transform"

	p.warm = closedLoop(ctx, client, url, p.reqs, nproc(), b.warmTime())
	var cpu0 time.Duration
	var stopSampler func() float64
	if traced {
		if cpu0, err = procCPU(pid); err != nil {
			return err
		}
		stopSampler = sampleQueueDepth(c.base)
	}
	p.open = openLoop(ctx, client, url, p.reqs, b.due)
	p.closed = closedLoop(ctx, client, url, p.reqs, nproc(), b.closedTime())
	if traced {
		p.queuePeak = stopSampler()
		cpu1, err := procCPU(pid)
		if err != nil {
			return err
		}
		p.serverCPU = cpu1 - cpu0
		if p.metrics, err = scrapeMetrics(client, c.base); err != nil {
			return err
		}
	}
	if p.serveRSS, err = procStatusKB(pid, "VmHWM"); err != nil {
		return err
	}
	for _, ph := range []*phaseResult{p.warm, p.open, p.closed} {
		sent, _, failed := ph.counts()
		p.attempted += sent
		p.failed += failed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if p.failed > 0 {
		stderrf("%d of %d checks or requests failed; server log: %s", p.failed, p.attempted, logf.Name())
	}
	return nil
}

// sampleQueueDepth polls the server's admission queue-depth gauge every
// 100ms until the returned function is called; that function stops the
// poller, waits for it and returns the highest depth seen.
func sampleQueueDepth(base string) func() float64 {
	client := &http.Client{Timeout: 5 * time.Second}
	done := make(chan struct{})
	var wg sync.WaitGroup
	var peak float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			if m, err := scrapeMetrics(client, base); err == nil {
				peak = max(peak, m["ifair_admission_queue_depth"])
			}
		}
	}()
	return func() float64 {
		close(done)
		wg.Wait()
		client.CloseIdleConnections()
		return peak
	}
}

// timeTrainSetup times checkpoint.Open on a fresh directory plus
// ingest.OpenStream on a completed store: the set-up of a training run.
func timeTrainSetup(store, ckptDir string) (time.Duration, error) {
	if err := os.RemoveAll(ckptDir); err != nil {
		return 0, err
	}
	t0 := time.Now()
	if _, err := openCheckpoint(ckptDir, nil); err != nil {
		return 0, err
	}
	if _, err := ingest.OpenStream(store, nil); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}
