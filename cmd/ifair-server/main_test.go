package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ifair"
	"repro/internal/mat"
)

// lockedBuffer is a log sink safe for the server's concurrent writers.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// writeModel saves a small deterministic 17-attribute model as
// dir/credit.json and returns it.
func writeModel(t *testing.T, dir string) *ifair.Model {
	t.Helper()
	const k, n = 4, 17
	protos := mat.NewDense(k, n)
	for i := 0; i < k; i++ {
		for j := 0; j < n; j++ {
			protos.Set(i, j, float64(i)+0.1*float64(j))
		}
	}
	alpha := make([]float64, n)
	for j := range alpha {
		alpha[j] = 1
	}
	m := &ifair.Model{Prototypes: protos, Alpha: alpha, P: 2, Kernel: ifair.ExpKernel, Loss: 0.5}
	f, err := os.Create(filepath.Join(dir, "credit.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Encode(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFlags(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"missing -models", nil, "specify -models"},
		{"removed -max-wait", []string{"-models", dir, "-max-wait", "2ms"}, "flag provided but not defined: -max-wait"},
		{"removed -max-batch", []string{"-models", dir, "-max-batch", "32"}, "flag provided but not defined: -max-batch"},
		{"removed -flush-workers", []string{"-models", dir, "-flush-workers", "2"}, "flag provided but not defined: -flush-workers"},
		{"removed -max-pending", []string{"-models", dir, "-max-pending", "64"}, "flag provided but not defined: -max-pending"},
		{"malformed duration", []string{"-models", dir, "-timeout", "soon"}, "invalid value"},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := run(context.Background(), c.args, io.Discard, nil)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want one containing %q", err, c.want)
			}
		})
	}
	if err := run(context.Background(), []string{"-h"}, io.Discard, nil); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: err = %v, want flag.ErrHelp", err)
	}
}

// TestServeAndDrain starts the server in-process on a free port, waits
// for /readyz, serves one single-row transform, then cancels the context
// as SIGTERM would and expects a clean drain.
func TestServeAndDrain(t *testing.T) {
	dir := t.TempDir()
	model := writeModel(t, dir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	logs := &lockedBuffer{}
	listening := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-models", dir, "-addr", "127.0.0.1:0", "-reload", "0"}, logs, listening)
	}()

	var base string
	select {
	case addr := <-listening:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("server exited before listening: %v\n%s", err, logs)
	case <-time.After(10 * time.Second):
		t.Fatalf("server never listened\n%s", logs)
	}

	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200", resp.StatusCode)
	}

	row := make([]float64, 17)
	for j := range row {
		row[j] = 0.05 * float64(j)
	}
	body, err := json.Marshal(map[string]any{"rows": [][]float64{row}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(base+"/v1/models/credit/transform", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Model   string      `json:"model"`
		Version int         `json:"version"`
		Rows    [][]float64 `json:"rows"`
	}
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("transform: status %d, decode error %v", resp.StatusCode, err)
	}
	want := model.TransformRow(row)
	if got.Model != "credit" || got.Version != 1 || len(got.Rows) != 1 || len(got.Rows[0]) != len(want) {
		t.Fatalf("transform answered %+v", got)
	}
	for j := range want {
		if got.Rows[0][j] != want[j] {
			t.Fatalf("cell %d = %v, want %v", j, got.Rows[0][j], want[j])
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after drain\n%s", err, logs)
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("server did not drain\n%s", logs)
	}
	for _, want := range []string{"serving 1 model(s) on 127.0.0.1:", "drained cleanly"} {
		if !strings.Contains(logs.String(), want) {
			t.Errorf("log missing %q:\n%s", want, logs)
		}
	}
}
