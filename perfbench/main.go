// Command perfbench is the repository's benchmark. It generates a
// workload's inputs from a seed, trains a model through the shard-store
// pipeline cmd/ifair -ingest uses, serves it with the cmd/ifair-server
// binary as a child process, drives that server over loopback, checks
// every output, and prints the metrics as one JSON line.
//
//	perfbench -server <ifair-server binary> -work <dir> \
//	    --workload serve-batch64 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the same workload untraced and then traced, and prints the per-layer
// metrics, the tracing overhead and how much of the end-to-end time the
// layers account for. perfbench -compare a.out b.out compares two saved
// outputs and flags a comparison across environments.
//
// perfbench/run.sh builds the benchmark and the server and runs it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// workload is one benchmark workload. Its sizes and open-loop rate are
// constants: they never depend on a measurement.
type workload struct {
	name string
	// train is the training run that produces the served model.
	train trainSpec
	// ingestReps ingest passes and fitReps full training passes are made;
	// medians are reported.
	ingestReps, fitReps int
	// rowsPerReq rows of the model's width make one transform request.
	rowsPerReq int
	// openRate is the open-loop Poisson arrival rate in requests/s.
	openRate float64
	// trainFocus marks the workload whose subject is training rather
	// than serving; the tracing overhead is reported on that phase.
	trainFocus bool
}

// serveModel trains the K=10, N=17 model both serving workloads serve:
// 16 numeric features plus the protected group.
var serveModel = trainSpec{
	CSV: csvSpec{Rows: 4000, Numeric: 16, DirtyRate: 0.02},
	K:   10, BatchSize: 512, Epochs: 6, PairSamples: 8, NeighborK: 8,
}

var workloads = []workload{
	{name: "serve-batch64", train: serveModel, ingestReps: 20, fitReps: 9, rowsPerReq: 64, openRate: 350},
	{name: "serve-single", train: serveModel, ingestReps: 20, fitReps: 9, rowsPerReq: 1, openRate: 180},
	{
		name: "train-stream",
		train: trainSpec{
			CSV: csvSpec{Rows: 300000, Numeric: 4, DirtyRate: 0.02},
			K:   10, BatchSize: 1024, Epochs: 2, PairSamples: 4, NeighborK: 4,
		},
		ingestReps: 5, fitReps: 1, rowsPerReq: 64, openRate: 800, trainFocus: true,
	},
}

const (
	modelName  = "bench"
	setupReps  = 5   // server starts per run; the median is reported
	requestSet = 256 // distinct requests cycled through by the generator
	serialOps  = 500 // calls per serial in-process layer replay
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		wlName  = flag.String("workload", "", "workload: serve-batch64, serve-single, train-stream")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "serving measurement time per pass, in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		srvBin  = flag.String("server", "", "path of the built cmd/ifair-server binary")
		workDir = flag.String("work", "", "scratch directory for generated inputs, stores and models")
		compare = flag.Bool("compare", false, "compare two saved outputs given as arguments")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return errors.New("-compare needs two output files")
		}
		return compareOutputs(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *wlName {
			wl = &workloads[i]
		}
	}
	switch {
	case wl == nil:
		return fmt.Errorf("unknown workload %q", *wlName)
	case *srvBin == "" || *workDir == "":
		return errors.New("-server and -work are required")
	case *seconds < 1:
		return errors.New("--seconds must be at least 1")
	case *trace != 0 && *trace != 1:
		return errors.New("--trace must be 0 or 1")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	env := environment(*seed, wl.name, *seconds, *trace)
	b, err := prepare(*wl, *seed, time.Duration(*seconds)*time.Second, *srvBin, filepath.Join(*workDir, wl.name))
	if err != nil {
		return err
	}
	b.lossRecord = filepath.Join(*workDir, "final-loss", fmt.Sprintf("%s-%d-%.16s", wl.name, *seed, env.SourceHash))

	plain, err := b.pass(ctx, false)
	if err != nil {
		return err
	}
	res := result{Attempted: plain.attempted, Failed: plain.failed}
	var m metrics
	if *trace == 0 {
		m = endToEnd(plain)
	} else {
		traced, err := b.pass(ctx, true)
		if err != nil {
			return err
		}
		lt, err := replayLayers(ctx, b.modelsDir, modelName, traced.reqs, b.replayDue(), serialOps)
		if err != nil {
			return err
		}
		res.Attempted += traced.attempted + lt.attempts
		res.Failed += traced.failed + lt.failures
		m = perLayer(b, plain, traced, lt, res)
	}
	res.Correct = res.Failed == 0
	res.Metrics = m
	logSummary(os.Stderr, wl.name, m)
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(record{Record: env, Samples: samples(plain)}); err != nil {
		return err
	}
	return out.Encode(res)
}

// bench holds one run's generated inputs and fixed schedule.
type bench struct {
	wl        workload
	seed      int64
	seconds   time.Duration
	serverBin string
	dir       string
	csvPath   string
	modelsDir string
	counts    csvCounts
	due       []time.Duration // open-loop schedule
	// lossRecord holds the final loss of the first run of this code,
	// workload and seed; later runs must reproduce it.
	lossRecord string
}

// prepare generates the workload's CSV and arrival schedule under dir.
func prepare(wl workload, seed int64, seconds time.Duration, serverBin, dir string) (*bench, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	b := &bench{
		wl: wl, seed: seed, seconds: seconds, serverBin: serverBin, dir: dir,
		csvPath:   filepath.Join(dir, "input.csv"),
		modelsDir: filepath.Join(dir, "models"),
	}
	f, err := os.Create(b.csvPath)
	if err != nil {
		return nil, err
	}
	b.counts, err = writeCSV(f, seed, wl.train.CSV)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x6c6f6164)) // "load"
	b.due = poissonSchedule(rng, wl.openRate, b.openTime())
	return b, nil
}

func (b *bench) warmTime() time.Duration   { return b.seconds * 5 / 100 }
func (b *bench) openTime() time.Duration   { return b.seconds * 60 / 100 }
func (b *bench) closedTime() time.Duration { return b.seconds * 35 / 100 }

// replayDue is the part of the open-loop schedule the in-process layer
// replays follow: its first three seconds at most.
func (b *bench) replayDue() []time.Duration {
	n := 0
	for n < len(b.due) && b.due[n] < 3*time.Second {
		n++
	}
	return b.due[:n]
}

func stderrf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// nproc is the number of CPUs: the generator's connection cap, the
// restart count and the restart worker count.
func nproc() int { return runtime.NumCPU() }
