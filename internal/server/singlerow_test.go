package server

import (
	"context"
	"errors"
	"math"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/ifair"
	"repro/internal/mat"
)

// The single-row tests keep the TestBatcher names of the micro-batcher
// whose guarantees they carry over: Server.Batcher returns SingleRow.

func testEntry(k, n int) *Entry {
	return &Entry{Name: "m", Version: 1, Model: testModel(k, n)}
}

// transformRow runs row through the single-row path into a fresh row.
func transformRow(ctx context.Context, e *Entry, row []float64) ([]float64, error) {
	dst := make([]float64, e.Model.Dims())
	if err := (SingleRow{}).TransformRowInto(ctx, e, dst, row); err != nil {
		return nil, err
	}
	return dst, nil
}

// sameBits reports whether a and b hold bit-identical values.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestBatcherMatchesDirectTransform(t *testing.T) {
	entry := testEntry(3, 4)
	for _, row := range [][]float64{
		{0.1, 0.2, 0.3, 0.4},
		{1, 1, 1, 1},
		{-2, 0.5, 3, -1},
	} {
		got, err := transformRow(context.Background(), entry, row)
		if err != nil {
			t.Fatal(err)
		}
		want, err := entry.Model.TransformRowChecked(row)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, want) {
			t.Fatalf("single-row path differs from Model.TransformRowChecked: %v vs %v", got, want)
		}
	}
}

func TestBatcherRejectsWrongWidth(t *testing.T) {
	entry := testEntry(2, 3)
	if _, err := transformRow(context.Background(), entry, []float64{1}); err == nil {
		t.Fatal("expected an error for a row of the wrong width")
	}
	if err := (SingleRow{}).TransformRowInto(context.Background(), entry, make([]float64, 2), []float64{1, 2, 3}); err == nil {
		t.Fatal("expected an error for a destination of the wrong width")
	}
}

// doneContexts returns an already-cancelled and an already-expired
// context, each with the error it reports.
func doneContexts(t *testing.T) []struct {
	ctx  context.Context
	want error
} {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	t.Cleanup(cancel2)
	return []struct {
		ctx  context.Context
		want error
	}{{cancelled, context.Canceled}, {expired, context.DeadlineExceeded}}
}

func TestBatcherHonoursContextCancellation(t *testing.T) {
	entry := testEntry(2, 2)
	for _, c := range doneContexts(t) {
		if _, err := transformRow(c.ctx, entry, []float64{1, 2}); !errors.Is(err, c.want) {
			t.Fatalf("err = %v, want %v", err, c.want)
		}
	}
}

// TestBatcherSkipsAbandonedRows verifies a row whose caller gave up is
// not transformed for nobody: its destination stays untouched.
func TestBatcherSkipsAbandonedRows(t *testing.T) {
	entry := testEntry(2, 2)
	for _, c := range doneContexts(t) {
		dst := []float64{-7, -7}
		_ = (SingleRow{}).TransformRowInto(c.ctx, entry, dst, []float64{1, 2})
		if dst[0] != -7 || dst[1] != -7 {
			t.Fatalf("dst = %v: a row whose context was done was transformed", dst)
		}
	}
}

// TestBatcherBypassWithoutCoalescing checks that the batch settings a
// Config may still carry hold no row back: with a one-hour MaxWait a
// single-row request is answered at once, with the model's own result,
// by the path Server.Batcher returns.
func TestBatcherBypassWithoutCoalescing(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxBatch: 1000, MaxWait: time.Hour})
	entry := mustEntry(t, s, "credit")
	row := []float64{1, 2, 3}
	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/models/credit/transform", rowsRequest{Rows: [][]float64{row}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("single-row request took %v", elapsed)
	}
	dst := make([]float64, 3)
	if err := s.Batcher().TransformRowInto(context.Background(), entry, dst, row); err != nil {
		t.Fatal(err)
	}
	if !sameBits(dst, entry.Model.TransformRow(row)) {
		t.Fatal("Server.Batcher path differs from direct transform")
	}
}

// TestBatcherSeparatesModelInstances transforms one row through two
// entries with the same key but different models (a hot reload): each
// result must come from the instance the caller passed in.
func TestBatcherSeparatesModelInstances(t *testing.T) {
	oldEntry := &Entry{Name: "m", Version: 1, Model: testModel(2, 2)}
	newEntry := &Entry{Name: "m", Version: 1, Model: testModel(5, 2)}
	row := []float64{1, 2}
	for _, e := range []*Entry{oldEntry, newEntry} {
		got, err := transformRow(context.Background(), e, row)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, e.Model.TransformRow(row)) {
			t.Fatalf("K=%d instance: row transformed by another model", e.Model.K())
		}
	}
}

// TestBatcherHotReloadHammer races single-row transforms across model
// instances that share one key, as continuous hot reloads do: every
// result must match the exact instance the caller resolved, and no
// goroutine may outlive the calls.
func TestBatcherHotReloadHammer(t *testing.T) {
	// Distinct instances behind one key, each with visibly different
	// prototypes so a row served by the wrong one produces wrong values.
	const instances = 6
	entries := make([]*Entry, instances)
	for i := range entries {
		protos := mat.NewDense(2, 2)
		for r := 0; r < 2; r++ {
			for c := 0; c < 2; c++ {
				protos.Set(r, c, float64(100*i+10*r+c))
			}
		}
		entries[i] = &Entry{
			Name: "m", Version: 1,
			Model: &ifair.Model{Prototypes: protos, Alpha: []float64{1, 1}, P: 2, Kernel: ifair.ExpKernel},
		}
	}

	before := runtime.NumGoroutine()
	const (
		workers = 8
		iters   = 300
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				e := entries[(w*iters+i)%instances]
				row := []float64{float64(i % 7), float64(w)}
				got, err := transformRow(context.Background(), e, row)
				if err != nil {
					t.Errorf("worker %d iter %d: %v", w, i, err)
					return
				}
				if want := e.Model.TransformRow(row); !sameBits(got, want) {
					t.Errorf("worker %d iter %d: row transformed by a different model instance: got %v want %v", w, i, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// Allow slack for test machinery, but catch per-request leaks
	// (thousands would remain).
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+10 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d: leak", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
