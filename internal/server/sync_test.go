package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// newSyncOrigin spins an origin server over a temp model dir and
// returns the dir plus a syncer-ready base URL.
func newSyncOrigin(t *testing.T) (string, *httptest.Server) {
	t.Helper()
	s, ts := newTestServer(t, Config{})
	return s.cfg.ModelDir, ts
}

func newSyncer(ts *httptest.Server, dir string) *Syncer {
	return &Syncer{
		Source: &Client{BaseURL: ts.URL, MaxRetries: -1},
		Dir:    dir,
	}
}

func dirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, de := range entries {
		if de.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[de.Name()] = string(data)
	}
	return out
}

func TestSyncManifestEndpoint(t *testing.T) {
	_, ts := newSyncOrigin(t)
	resp, body := getBody(t, ts.URL+"/v1/sync/manifest")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("manifest status %d", resp.StatusCode)
	}
	var man Manifest
	if err := json.Unmarshal(body, &man); err != nil {
		t.Fatal(err)
	}
	if len(man.Files) != 3 {
		t.Fatalf("manifest has %d files, want 3: %+v", len(man.Files), man)
	}
	for _, e := range man.Files {
		if e.Size <= 0 || len(e.CRC64) != 16 {
			t.Fatalf("bad manifest entry %+v", e)
		}
	}
	// File fetch round-trips the exact bytes the manifest describes.
	resp, data := getBody(t, ts.URL+"/v1/sync/files/"+man.Files[0].File)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("file fetch status %d", resp.StatusCode)
	}
	if int64(len(data)) != man.Files[0].Size {
		t.Fatalf("file size %d, manifest says %d", len(data), man.Files[0].Size)
	}
}

func TestSyncFileRejectsNonModelNames(t *testing.T) {
	_, ts := newSyncOrigin(t)
	for _, name := range []string{"..%2F..%2Fetc%2Fpasswd", "notjson.txt", "x@vbad.json"} {
		resp, _ := getBody(t, ts.URL+"/v1/sync/files/"+name)
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("fetch of %q unexpectedly succeeded", name)
		}
	}
}

func TestSyncConvergesReplicaDir(t *testing.T) {
	srcDir, ts := newSyncOrigin(t)
	dst := t.TempDir()
	sy := newSyncer(ts, dst)

	synced, skipped, err := sy.SyncOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if synced != 3 || skipped != 0 {
		t.Fatalf("first pass synced=%d skipped=%d, want 3/0", synced, skipped)
	}
	want := dirContents(t, srcDir)
	got := dirContents(t, dst)
	if len(got) != len(want) {
		t.Fatalf("replica dir has %d files, origin %d", len(got), len(want))
	}
	for name, data := range want {
		if got[name] != data {
			t.Fatalf("file %s differs after sync", name)
		}
	}
	// A replica registry over the synced dir loads the same models.
	reg := NewRegistry(dst)
	if _, _, err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 3 {
		t.Fatalf("synced registry loaded %d models, want 3", reg.Len())
	}
}

func TestSyncSameBytesIsNoop(t *testing.T) {
	_, ts := newSyncOrigin(t)
	dst := t.TempDir()
	sy := newSyncer(ts, dst)
	if _, _, err := sy.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry(dst)
	if _, _, err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	before, ok := reg.Get("credit")
	if !ok {
		t.Fatal("credit not loaded")
	}
	statBefore := make(map[string]time.Time)
	for name := range dirContents(t, dst) {
		fi, err := os.Stat(filepath.Join(dst, name))
		if err != nil {
			t.Fatal(err)
		}
		statBefore[name] = fi.ModTime()
	}

	synced, skipped, err := sy.SyncOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if synced != 0 || skipped != 3 {
		t.Fatalf("re-sync synced=%d skipped=%d, want 0/3", synced, skipped)
	}
	for name, mt := range statBefore {
		fi, err := os.Stat(filepath.Join(dst, name))
		if err != nil {
			t.Fatal(err)
		}
		if !fi.ModTime().Equal(mt) {
			t.Fatalf("file %s was rewritten by a same-bytes re-sync", name)
		}
	}
	// The registry reuses the identical entries: same pointer means each
	// compiled kernel and its scratch pool are untouched (no version bump,
	// no instance churn on a no-op sync).
	loaded, reused, err := reg.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 0 || reused != 3 {
		t.Fatalf("reload after no-op sync loaded=%d reused=%d, want 0/3", loaded, reused)
	}
	after, _ := reg.Get("credit")
	if before != after {
		t.Fatal("no-op sync churned the registry entry (new *Entry for identical bytes)")
	}
}

func TestSyncTornDownloadNeverVisible(t *testing.T) {
	srcDir, ts := newSyncOrigin(t)
	dst := t.TempDir()
	sy := newSyncer(ts, dst)
	// Every write short-writes with ENOSPC: no download may ever be
	// renamed into a loadable name.
	sy.FS = &faultinject.FS{ShortWrite: faultinject.NewStickyFuse(1)}

	if _, _, err := sy.SyncOnce(context.Background()); err == nil {
		t.Fatal("sync with sticky short-writes unexpectedly succeeded")
	}
	reg := NewRegistry(dst)
	if _, _, err := reg.Reload(); err != nil {
		t.Fatalf("reload over torn-sync dir errored: %v", err)
	}
	if reg.Len() != 0 {
		t.Fatalf("registry loaded %d models from torn downloads, want 0", reg.Len())
	}
	if reg.ReloadFailures() != 0 {
		t.Fatalf("registry counted %d load failures — a torn download became visible", reg.ReloadFailures())
	}

	// The disk heals: the next pass (no faults) converges exactly.
	sy.FS = nil
	synced, _, err := sy.SyncOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if synced != 3 {
		t.Fatalf("recovery pass synced %d, want 3", synced)
	}
	want := dirContents(t, srcDir)
	got := dirContents(t, dst)
	for name, data := range want {
		if got[name] != data {
			t.Fatalf("file %s differs after recovery sync", name)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("replica dir has stray files: %d vs %d", len(got), len(want))
	}
}

func TestSyncCleansStaleTempFiles(t *testing.T) {
	_, ts := newSyncOrigin(t)
	dst := t.TempDir()
	// A crashed earlier pass left a half-written temp file behind.
	stale := filepath.Join(dst, "credit.json"+syncTmpSuffix)
	if err := os.WriteFile(stale, []byte("{half"), 0o644); err != nil {
		t.Fatal(err)
	}
	sy := newSyncer(ts, dst)
	if _, _, err := sy.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale sync temp file survived a sync pass")
	}
}

func TestSyncPruneRemovesDroppedModels(t *testing.T) {
	_, ts := newSyncOrigin(t)
	dst := t.TempDir()
	sy := newSyncer(ts, dst)
	sy.Prune = true
	if err := os.WriteFile(filepath.Join(dst, "stale.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sy.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dst, "stale.json")); !os.IsNotExist(err) {
		t.Fatal("prune left a model the origin no longer has")
	}
	if st := sy.Stats(); st.Pruned != 1 {
		t.Fatalf("pruned counter %d, want 1", st.Pruned)
	}
}

// TestSyncRacesHotReload is the registry/sync interleaving soak: reloads
// run continuously while sync passes — some with injected short writes —
// rewrite the directory. A half-written download must never surface as a
// loadable model, and the final state must converge to the origin.
func TestSyncRacesHotReload(t *testing.T) {
	srcDir, ts := newSyncOrigin(t)
	dst := t.TempDir()
	reg := NewRegistry(dst)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := reg.Reload(); err != nil {
				// The only tolerated error source would be a model file
				// that fails to decode — which must never happen, because
				// downloads land under non-model temp names.
				t.Errorf("reload: %v", err)
				return
			}
		}
	}()

	// Keep mutating the origin so every cycle re-downloads changed files;
	// each cycle's first pass tears a different write, the second heals.
	for i := 0; i < 8; i++ {
		writeModelFile(t, srcDir, "credit.json", testModel(2+i%4, 3))
		writeModelFile(t, srcDir, "credit@v2.json", testModel(3+i%3, 3))
		sy := newSyncer(ts, dst)
		sy.FS = &faultinject.FS{ShortWrite: faultinject.NewFuse(i%3 + 1)}
		_, _, _ = sy.SyncOnce(context.Background())
		sy.FS = nil
		if _, _, err := sy.SyncOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if _, _, err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	if reg.ReloadFailures() != 0 {
		t.Fatalf("%d reload failures — a torn download was visible as a model file", reg.ReloadFailures())
	}
	want := dirContents(t, srcDir)
	got := dirContents(t, dst)
	if len(got) != len(want) {
		t.Fatalf("converged dir has %d files, origin %d", len(got), len(want))
	}
	if reg.Len() != 3 {
		t.Fatalf("registry has %d models after convergence, want 3", reg.Len())
	}
}

// TestSyncManifestCacheInvalidates proves the checksum cache follows
// file changes: rewriting a model bumps its manifest CRC.
func TestSyncManifestCacheInvalidates(t *testing.T) {
	dir := t.TempDir()
	writeModelFile(t, dir, "credit.json", testModel(2, 3))
	cache := &crcCache{}
	man1, err := BuildManifest(dir, cache)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite with different content and a different mtime.
	time.Sleep(10 * time.Millisecond)
	writeModelFile(t, dir, "credit.json", testModel(5, 3))
	man2, err := BuildManifest(dir, cache)
	if err != nil {
		t.Fatal(err)
	}
	if man1.Files[0].CRC64 == man2.Files[0].CRC64 {
		t.Fatal("manifest CRC unchanged after rewriting the model file")
	}
}
