package server_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"aprof/internal/faultio"
	"aprof/internal/obs"
	"aprof/internal/repo"
	"aprof/internal/repo/backend"
	"aprof/internal/server"
	"aprof/internal/server/client"
)

// openStore opens (initializing if needed) a profile repository for tests.
func openStore(t *testing.T, dir string) *repo.Repository {
	t.Helper()
	be, err := backend.OpenLocal(dir)
	if err != nil {
		t.Fatal(err)
	}
	r, err := repo.OpenOrInit(be, repo.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestStoreMatchesFlatFilePath: with both -result-dir and -store configured
// the two persistence paths must agree byte for byte, and both must match
// the offline pipeline.
func TestStoreMatchesFlatFilePath(t *testing.T) {
	enc := testTrace(t, 21, 1500)
	want := offlineProfile(t, enc)
	resultDir := t.TempDir()
	storeDir := t.TempDir()
	store := openStore(t, storeDir)
	defer store.Close()

	s := startServer(t, server.Options{ResultDir: resultDir, Store: store})
	if _, err := client.Run(context.Background(), client.Options{
		Addr: s.Addr(), SessionID: "both-paths", Open: opener(enc),
	}); err != nil {
		t.Fatal(err)
	}

	flat, err := os.ReadFile(filepath.Join(resultDir, "both-paths.json"))
	if err != nil {
		t.Fatal(err)
	}
	stored, err := store.GetSession("both-paths")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(flat, want) {
		t.Fatal("flat-file profile differs from offline pipeline")
	}
	if !bytes.Equal(stored, want) {
		t.Fatal("store profile differs from offline pipeline")
	}
	if rep := store.Check(); !rep.OK() {
		t.Fatalf("store check: %v", rep.Errors)
	}
}

// TestStoreServesAcrossRestart: a fresh Server (empty in-memory results)
// configured with the same repository serves the previous daemon's
// sessions through Result, ResultIDs and the /profiles/ handler.
func TestStoreServesAcrossRestart(t *testing.T) {
	enc := testTrace(t, 22, 1200)
	want := offlineProfile(t, enc)
	storeDir := t.TempDir()

	store := openStore(t, storeDir)
	s := startServer(t, server.Options{Store: store})
	if _, err := client.Run(context.Background(), client.Options{
		Addr: s.Addr(), SessionID: "survivor", Open: opener(enc),
	}); err != nil {
		t.Fatal(err)
	}
	s.Abort()
	s.Wait()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// The "restarted daemon": new store handle, new server, no sessions run.
	store2 := openStore(t, storeDir)
	defer store2.Close()
	s2 := startServer(t, server.Options{Store: store2})

	res, ok := s2.Result("survivor")
	if !ok {
		t.Fatal("restarted server does not serve the stored session")
	}
	if !bytes.Equal(res.Profile, want) {
		t.Fatal("stored profile differs from offline pipeline after restart")
	}
	ids := s2.ResultIDs()
	if len(ids) != 1 || ids[0] != "survivor" {
		t.Fatalf("ResultIDs after restart = %v", ids)
	}

	// The HTTP surface (what cluster fan-out reads) serves it too.
	srv := httptest.NewServer(s2.ProfilesHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/profiles/survivor")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got bytes.Buffer
	if _, err := got.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("/profiles/survivor: status %d, matches: %v", resp.StatusCode, bytes.Equal(got.Bytes(), want))
	}
}

// gauge reads one server-scope gauge.
func gauge(reg *obs.Registry, name string) int64 {
	return reg.Scope(server.ObsScopeServer).Gauge(name).Load()
}

// TestResultWindowServesEvictedFromStore: with a Store, memory holds only
// the MaxSessions most recently stored results, and every older one is
// served from the store. Four distinct ids upload concurrently while a
// reader polls Result, ResultIDs and the results_cached gauge. Then two ids
// are uploaded again with different traces: one the window had dropped,
// then one it still held. That makes 3×MaxSessions sessions. Every id must
// serve its newest profile byte for byte, ResultIDs must list every id, the
// two re-uploaded ids must be the ones held, and the gauges must never show
// more than MaxSessions results held.
func TestResultWindowServesEvictedFromStore(t *testing.T) {
	const maxSessions = 2
	ids := make([]string, 2*maxSessions)
	encs := make(map[string][]byte)
	wants := make(map[string][]byte)
	for i := range ids {
		ids[i] = fmt.Sprintf("win-%d", i)
		encs[ids[i]] = testTrace(t, int64(60+i), 400+100*i)
		wants[ids[i]] = offlineProfile(t, encs[ids[i]])
	}

	reg := obs.NewRegistry()
	store := openStore(t, t.TempDir())
	t.Cleanup(func() { store.Close() }) // after the server's own cleanup
	s := startServer(t, server.Options{MaxSessions: maxSessions, Obs: reg, Store: store})
	upload := func(id string, enc []byte) error {
		_, err := client.Run(context.Background(), client.Options{
			Addr: s.Addr(), SessionID: id, Open: opener(enc),
			MaxAttempts: 100, Backoff: 2 * time.Millisecond, Jitter: 0.5,
		})
		return err
	}
	// held lists the ids served from memory: only those carry Delivered.
	held := func() []string {
		var out []string
		for _, id := range ids {
			if r, ok := s.Result(id); ok && r.Delivered > 0 {
				out = append(out, id)
			}
		}
		return out
	}
	// reupload uploads id again with a new trace, which becomes its want.
	reupload := func(id string, seed int64) {
		t.Helper()
		enc := testTrace(t, seed, 900)
		want := offlineProfile(t, enc)
		if bytes.Equal(want, wants[id]) {
			t.Fatal("re-upload trace profiles like the first: test is vacuous")
		}
		if err := upload(id, enc); err != nil {
			t.Fatal(err)
		}
		wants[id] = want
	}

	// The reader runs beside the uploads: a result is served either from
	// memory or from the store, and is always its id's complete profile.
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	var maxCached int64 // read once readerWG.Wait has returned
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			maxCached = max(maxCached, gauge(reg, "results_cached"))
			for _, id := range s.ResultIDs() {
				if r, ok := s.Result(id); !ok || !bytes.Equal(r.Profile, wants[id]) {
					t.Errorf("Result(%q) during uploads: ok=%v, not its profile", id, ok)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for _, id := range ids {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := upload(id, encs[id]); err != nil {
				t.Errorf("upload %s: %v", id, err)
			}
		}()
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if maxCached > maxSessions {
		t.Errorf("results_cached reached %d, above MaxSessions %d", maxCached, maxSessions)
	}

	first := held()
	if len(first) != maxSessions {
		t.Fatalf("%d results held after the concurrent uploads, want %d", len(first), maxSessions)
	}
	var dropped string
	for _, id := range ids {
		if !slices.Contains(first, id) {
			dropped = id
			break
		}
	}
	reupload(dropped, 70)
	second := held()
	if !slices.Contains(second, dropped) {
		t.Fatalf("re-uploaded %q is not held: held %v", dropped, second)
	}
	i := slices.IndexFunc(second, func(id string) bool { return id != dropped })
	if i < 0 {
		t.Fatalf("only %v held after re-uploading %q", second, dropped)
	}
	kept := second[i]
	reupload(kept, 71)

	if got := s.ResultIDs(); !slices.Equal(got, ids) {
		t.Fatalf("ResultIDs = %v, want %v", got, ids)
	}
	var memoryBytes int64
	for _, id := range ids {
		r, ok := s.Result(id)
		if !ok || !bytes.Equal(r.Profile, wants[id]) {
			t.Fatalf("Result(%q): ok=%v, not its newest offline profile", id, ok)
		}
		if r.Delivered > 0 {
			memoryBytes += int64(len(r.Profile))
		}
	}
	// The two newest stored results are the re-uploads; the store serves
	// the rest with zero metadata.
	want := []string{dropped, kept}
	slices.Sort(want)
	if got := held(); !slices.Equal(got, want) {
		t.Errorf("held %v, want %v", got, want)
	}
	if n := gauge(reg, "results_cached"); n != maxSessions {
		t.Errorf("results_cached = %d, want %d", n, maxSessions)
	}
	if n := gauge(reg, "results_cached_bytes"); n != memoryBytes {
		t.Errorf("results_cached_bytes = %d, want %d", n, memoryBytes)
	}
}

// TestResultsWithoutStoreAllKept: without a Store, memory is the only copy
// of a result, so the window does not apply: every result stays served.
func TestResultsWithoutStoreAllKept(t *testing.T) {
	reg := obs.NewRegistry()
	s := startServer(t, server.Options{MaxSessions: 1, Obs: reg})
	wants := make(map[string][]byte)
	var total int64
	for i := 0; i < 3; i++ {
		enc := testTrace(t, int64(80+i), 500)
		id := fmt.Sprintf("kept-%d", i)
		if _, err := client.Run(context.Background(), client.Options{Addr: s.Addr(), SessionID: id, Open: opener(enc)}); err != nil {
			t.Fatal(err)
		}
		wants[id] = offlineProfile(t, enc)
		total += int64(len(wants[id]))
	}
	for id, want := range wants {
		if r, ok := s.Result(id); !ok || !bytes.Equal(r.Profile, want) {
			t.Errorf("Result(%q) lost without a store", id)
		}
	}
	if n := gauge(reg, "results_cached"); n != 3 {
		t.Errorf("results_cached = %d, want 3", n)
	}
	if n := gauge(reg, "results_cached_bytes"); n != total {
		t.Errorf("results_cached_bytes = %d, want %d", n, total)
	}
}

// TestStoreFailureDoesNotPublish: a session whose profile the store fails
// to save fails, and its profile is served neither by Result nor by
// /profiles/. Once the store is healthy again, a retry of the upload serves
// the profile byte-identical to the offline run.
func TestStoreFailureDoesNotPublish(t *testing.T) {
	enc := testTrace(t, 25, 1000)
	want := offlineProfile(t, enc)

	inner, err := backend.OpenLocal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Init(inner); err != nil {
		t.Fatal(err)
	}
	// Crash the first mutating backend operation after open: the pack
	// write of the session's profile.
	cb := faultio.NewCrashBackend(inner, 1, faultio.CrashBefore)
	store, err := repo.Open(cb, repo.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if n := cb.Ops(); n != 0 {
		t.Fatalf("opening the store made %d mutating operations; the crash would not hit the save", n)
	}
	t.Cleanup(func() { store.Close() })
	reg := obs.NewRegistry()
	s := startServer(t, server.Options{Obs: reg, Store: store})
	upload := func() error {
		_, err := client.Run(context.Background(), client.Options{
			Addr: s.Addr(), SessionID: "unsaved", Open: opener(enc), MaxAttempts: 1,
		})
		return err
	}

	if err := upload(); err == nil {
		t.Fatal("upload succeeded although the store failed to save its profile")
	}
	if !cb.Dead() {
		t.Fatal("the store never crashed: test is vacuous")
	}
	if r, ok := s.Result("unsaved"); ok {
		t.Fatalf("Result serves a profile the store failed to save (%d bytes)", len(r.Profile))
	}
	srv := httptest.NewServer(s.ProfilesHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/profiles/unsaved")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/profiles/unsaved: status %d, want 404", resp.StatusCode)
	}
	if n := gauge(reg, "results_cached"); n != 0 {
		t.Fatalf("results_cached = %d after a failed save", n)
	}

	cb.Revive()
	if err := upload(); err != nil {
		t.Fatalf("retry on a healthy store: %v", err)
	}
	r, ok := s.Result("unsaved")
	if !ok || !bytes.Equal(r.Profile, want) {
		t.Fatalf("after the retry: ok=%v, profile differs from offline pipeline", ok)
	}
	stored, err := store.GetSession("unsaved")
	if err != nil || !bytes.Equal(stored, want) {
		t.Fatalf("store after the retry: %v, matches: %v", err, bytes.Equal(stored, want))
	}
	if rep := store.Check(); !rep.OK() {
		t.Fatalf("store check: %v", rep.Errors)
	}
}
