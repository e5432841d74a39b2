package server

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/kernel"
)

// TestBatcherStagingZeroAlloc is the allocation regression test for the
// single-row path: with the caller supplying the destination, the context
// check, width check and fused kernel transform must not touch the
// allocator in steady state.
func TestBatcherStagingZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	entry := testEntry(4, 6)
	if _, err := entry.Kernel(); err != nil { // compile outside the measured loop
		t.Fatal(err)
	}
	ctx := context.Background()
	row, dst := []float64{0, 1, 2, 3, 4, 5}, make([]float64, 6)
	run := func() {
		if err := (SingleRow{}).TransformRowInto(ctx, entry, dst, row); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the kernel's scratch pool
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Errorf("single-row transform allocates %v/op, want 0", n)
	}
}

// TestBatchWorkersInlinesSmallBatches pins the fan-out threshold of
// multi-row transforms: a batch under fanOutWork runs on the calling
// goroutine, a larger one fans out over the configured workers.
func TestBatchWorkersInlinesSmallBatches(t *testing.T) {
	kern, err := testEntry(10, 5).Kernel()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ rows, want int }{{1, 1}, {64, 1}, {fanOutWork / 50, 1}, {fanOutWork/50 + 1, 4}, {10000, 4}} {
		if got := batchWorkers(kern, tc.rows, 4); got != tc.want {
			t.Errorf("batchWorkers(K=10, N=5, %d rows, 4) = %d, want %d", tc.rows, got, tc.want)
		}
	}
}

// TestPooledScratchIsolationAcrossModelVersions hammers two model
// versions concurrently through the single-row path (run under -race).
// Each version's entry owns its compiled kernel and scratch pool, so no
// pooled buffer can carry one version's state into the other's results:
// every output must match that version's own reference transform
// bitwise.
func TestPooledScratchIsolationAcrossModelVersions(t *testing.T) {
	mkEntry := func(version int, shift float64) *Entry {
		m := testModel(3, 5)
		for i := range m.Prototypes.Data() {
			m.Prototypes.Data()[i] += shift
		}
		return &Entry{Name: "m", Version: version, Model: m}
	}
	v1 := mkEntry(1, 0)
	v2 := mkEntry(2, 10)

	rows := make([][]float64, 8)
	want1 := make([][]float64, len(rows))
	want2 := make([][]float64, len(rows))
	for i := range rows {
		rows[i] = make([]float64, 5)
		for j := range rows[i] {
			rows[i][j] = float64(i)*0.3 + float64(j)*0.7
		}
		want1[i] = v1.Model.TransformRow(rows[i])
		want2[i] = v2.Model.TransformRow(rows[i])
	}

	const goroutines = 8
	const iters = 50
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			entry, want := v1, want1
			if g%2 == 1 {
				entry, want = v2, want2
			}
			dst := make([]float64, 5)
			for it := 0; it < iters; it++ {
				i := (g + it) % len(rows)
				if err := (SingleRow{}).TransformRowInto(context.Background(), entry, dst, rows[i]); err != nil {
					errs <- fmt.Errorf("v%d row %d: %w", entry.Version, i, err)
					return
				}
				for j := range dst {
					if dst[j] != want[i][j] {
						errs <- fmt.Errorf("v%d row %d: cell %d = %v, want %v (cross-version scratch leak?)",
							entry.Version, i, j, dst[j], want[i][j])
						return
					}
				}
			}
			errs <- nil
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestEntryKernelHonoursDType checks the registry-stamped dtype reaches
// the compiled kernel and that Float32 outputs track the Float64 path
// within the documented tolerance.
func TestEntryKernelHonoursDType(t *testing.T) {
	m := testModel(3, 4)
	e64 := &Entry{Name: "m", Version: 1, Model: m}
	e32 := &Entry{Name: "m", Version: 1, Model: m, DType: kernel.Float32}
	k64, err := e64.Kernel()
	if err != nil {
		t.Fatal(err)
	}
	k32, err := e32.Kernel()
	if err != nil {
		t.Fatal(err)
	}
	if k64.DType() != kernel.Float64 || k32.DType() != kernel.Float32 {
		t.Fatalf("dtypes = %v, %v; want float64, float32", k64.DType(), k32.DType())
	}
	x := []float64{0.5, -1, 2, 0.25}
	a, b := make([]float64, 4), make([]float64, 4)
	if err := k64.TransformRowInto(a, x); err != nil {
		t.Fatal(err)
	}
	if err := k32.TransformRowInto(b, x); err != nil {
		t.Fatal(err)
	}
	for j := range a {
		if d := a[j] - b[j]; d > 2e-3 || d < -2e-3 {
			t.Fatalf("float32 kernel diverges at cell %d: %v vs %v", j, b[j], a[j])
		}
	}
}
