package repo

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aprof/internal/obs"
	"aprof/internal/repo/backend"
)

// openTestRepo initializes and opens a fresh store in a test temp dir.
func openTestRepo(t *testing.T) (*Repository, *backend.Local) {
	t.Helper()
	be, err := backend.OpenLocal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := Init(be); err != nil {
		t.Fatal(err)
	}
	r, err := Open(be, Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return r, be
}

// syntheticProfile builds a deterministic pseudo-JSON document of roughly
// the requested size — stands in for a profio profile document.
func syntheticProfile(seed int64, size int) []byte {
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	sb.WriteString(`{"schema":1,"routines":[`)
	for i := 0; sb.Len() < size; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"name":"routine_%d","calls":%d,"cost":%d,"points":[`, i, rng.Intn(1e6), rng.Intn(1e9))
		for j := 0; j < 8; j++ {
			if j > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, `[%d,%d]`, rng.Intn(1e4), rng.Intn(1e7))
		}
		sb.WriteString(`]}`)
	}
	sb.WriteString(`]}`)
	return []byte(sb.String())
}

func TestPutGetRoundTrip(t *testing.T) {
	r, _ := openTestRepo(t)
	for _, size := range []int{0, 1, 100, 512, 8193, 64 << 10} {
		data := syntheticProfile(int64(size), size)
		id, err := r.Put(data)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if id != IDOf(data) {
			t.Fatalf("size %d: Put returned %s, want the document's SHA-256 %s", size, id.Short(), IDOf(data).Short())
		}
		got, err := r.Get(id)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("size %d: round-trip mismatch (%d bytes in, %d out)", size, len(data), len(got))
		}
	}
}

// TestReadsReturnCopies: a read hands out its own copy, never the staged
// blob or the cached pack it was read from, so a caller that changes the
// bytes changes nothing the store serves next.
func TestReadsReturnCopies(t *testing.T) {
	r, _ := openTestRepo(t)
	data := syntheticProfile(5, 16<<10)
	id, err := r.Put(data) // staged, not yet flushed
	if err != nil {
		t.Fatal(err)
	}
	if got, err := r.Get(id); err != nil {
		t.Fatal(err)
	} else {
		got[0] ^= 0xff
	}
	if err := r.SaveProfile("s", data); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // the second read comes from the pack cache
		got, err := r.GetSession("s")
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read %d: %d bytes, %v; want the saved profile", i, len(got), err)
		}
		got[0] ^= 0xff
	}
	got, err := r.Get(id)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get after changed reads: %d bytes, %v", len(got), err)
	}
}

func TestIdenticalPutsShareOneManifest(t *testing.T) {
	r, _ := openTestRepo(t)
	data := syntheticProfile(1, 32<<10)
	id1, err := r.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := r.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Fatalf("identical content produced different manifests %s vs %s", id1.Short(), id2.Short())
	}
}

func TestSaveProfilePersistsAcrossReopen(t *testing.T) {
	r, be := openTestRepo(t)
	want := map[string][]byte{}
	for i := 0; i < 5; i++ {
		sid := fmt.Sprintf("session-%d", i)
		data := syntheticProfile(int64(i), 16<<10)
		if err := r.SaveProfile(sid, data); err != nil {
			t.Fatal(err)
		}
		want[sid] = data
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2, err := Open(be, Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.SessionIDs(); len(got) != len(want) {
		t.Fatalf("reopened store has %d sessions, want %d", len(got), len(want))
	}
	for sid, data := range want {
		got, err := r2.GetSession(sid)
		if err != nil {
			t.Fatalf("session %s: %v", sid, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("session %s: content mismatch after reopen", sid)
		}
	}
	// SaveProfile prunes superseded roots: one snapshot should remain.
	if snaps := r2.Snapshots(); len(snaps) != 1 {
		t.Fatalf("expected 1 snapshot after %d saves, got %d", len(want), len(snaps))
	}
}

// gatedBackend holds each pack and snapshot Save, once gated, until the
// test lets it through: it reports the handle on entered and waits for a
// token on release.
type gatedBackend struct {
	backend.Backend
	gated   atomic.Bool
	entered chan backend.Handle
	release chan struct{}
}

func (g *gatedBackend) Save(h backend.Handle, data []byte) error {
	if g.gated.Load() && (h.Type == backend.PackType || h.Type == backend.SnapshotType) {
		g.entered <- h
		<-g.release
	}
	return g.Backend.Save(h, data)
}

// TestReadsDoNotWaitForSaveWrites holds SaveProfile inside its pack write
// and then inside its snapshot write, and reads meanwhile: the reads must
// complete, and must see the store as it was before the save.
func TestReadsDoNotWaitForSaveWrites(t *testing.T) {
	local, err := backend.OpenLocal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := Init(local); err != nil {
		t.Fatal(err)
	}
	g := &gatedBackend{Backend: local, entered: make(chan backend.Handle), release: make(chan struct{})}
	r, err := Open(g, Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	a, b := syntheticProfile(1, 16<<10), syntheticProfile(2, 16<<10)
	if err := r.SaveProfile("a", a); err != nil {
		t.Fatal(err)
	}

	g.gated.Store(true)
	saved := make(chan error, 1)
	go func() { saved <- r.SaveProfile("b", b) }()
	// read runs fn and fails the test if it has not returned in 10 s.
	read := func(what string, fn func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { fn(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s waited for the save's backend write", what)
		}
	}
	checkBefore := func(stage string) {
		t.Helper()
		read("GetSession during the "+stage+" write", func() {
			got, err := r.GetSession("a")
			if err != nil || !bytes.Equal(got, a) {
				t.Errorf("%s write: GetSession(a) = %d bytes, %v; want the saved profile", stage, len(got), err)
			}
			if _, err := r.GetSession("b"); !errors.Is(err, ErrProfileNotFound) {
				t.Errorf("%s write: GetSession(b) = %v before its root is saved, want ErrProfileNotFound", stage, err)
			}
		})
	}
	for _, want := range []backend.Type{backend.PackType, backend.SnapshotType} {
		if h := <-g.entered; h.Type != want {
			t.Fatalf("save wrote %s, want %s", h.Type, want)
		}
		checkBefore(string(want))
		if want == backend.PackType {
			// The staged blob stays readable until its pack is indexed.
			read("Get of a staged profile", func() {
				if got, err := r.Get(IDOf(b)); err != nil || !bytes.Equal(got, b) {
					t.Errorf("staged profile: Get = %d bytes, %v; want the profile being saved", len(got), err)
				}
			})
		}
		g.release <- struct{}{}
	}
	if err := <-saved; err != nil {
		t.Fatal(err)
	}
	g.gated.Store(false)
	if got, err := r.GetSession("b"); err != nil || !bytes.Equal(got, b) {
		t.Fatalf("after the save: GetSession(b) = %d bytes, %v", len(got), err)
	}
	if rep := r.Check(); !rep.OK() {
		t.Fatalf("check after a save with concurrent reads: %+v", rep)
	}
}

func TestStaleIndexCacheIsRebuilt(t *testing.T) {
	r, be := openTestRepo(t)
	if err := r.SaveProfile("a", syntheticProfile(1, 8<<10)); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil { // writes the index cache
		t.Fatal(err)
	}
	// Write more WITHOUT refreshing the cache: the cache is now stale.
	if err := r.SaveProfile("b", syntheticProfile(2, 8<<10)); err != nil {
		t.Fatal(err)
	}

	r2, err := Open(be, Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for _, sid := range []string{"a", "b"} {
		if _, err := r2.GetSession(sid); err != nil {
			t.Fatalf("session %s unreadable after reopen with stale cache: %v", sid, err)
		}
	}

	// A corrupt cache must be ignored the same way.
	names, err := be.List(backend.IndexType)
	if err != nil || len(names) == 0 {
		t.Fatalf("expected an index cache file: %v", err)
	}
	for _, n := range names {
		if err := be.Save(backend.Handle{Type: backend.IndexType, Name: n}, []byte("garbage")); err != nil {
			t.Fatal(err)
		}
	}
	r3, err := Open(be, Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r3.GetSession("b"); err != nil {
		t.Fatalf("session unreadable with corrupt index cache: %v", err)
	}
}

func TestGCRemovesUnreferencedAndKeepsLive(t *testing.T) {
	r, be := openTestRepo(t)
	keep := syntheticProfile(1, 24<<10)
	drop := append(syntheticProfile(2, 24<<10), []byte(`,"tail":"unique-to-drop"`)...)
	if err := r.SaveProfile("keep", keep); err != nil {
		t.Fatal(err)
	}
	if err := r.SaveProfile("drop", drop); err != nil {
		t.Fatal(err)
	}
	dropID := r.Sessions()["drop"]

	// Forget "drop" by snapshotting only the surviving session.
	sessions := r.Sessions()
	delete(sessions, "drop")
	if _, err := r.Snapshot(sessions); err != nil {
		t.Fatal(err)
	}
	for _, s := range r.Snapshots() {
		if _, ok := s.Sessions["drop"]; ok {
			if err := r.Forget(s.Name); err != nil {
				t.Fatal(err)
			}
		}
	}

	stats, err := r.GC()
	if err != nil {
		t.Fatal(err)
	}
	if stats.BlobsFreed == 0 {
		t.Fatalf("gc freed nothing: %v", stats)
	}
	if got, err := r.GetSession("keep"); err != nil || !bytes.Equal(got, keep) {
		t.Fatalf("live session damaged by gc: %v", err)
	}
	if _, err := r.Get(dropID); err == nil {
		t.Fatalf("forgotten profile still readable after gc")
	}
	if rep := r.Check(); !rep.OK() {
		t.Fatalf("check failed after gc: %v", rep.Errors)
	}

	// And the same holds after a cold reopen.
	r2, err := Open(be, Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := r2.GetSession("keep"); err != nil || !bytes.Equal(got, keep) {
		t.Fatalf("live session damaged after gc+reopen: %v", err)
	}
}

// GC keeps each session's head and frees the profiles that re-saves
// superseded.
func TestGCDefaultKeepsHeadsOnly(t *testing.T) {
	r, _ := openTestRepo(t)
	var docs [][]byte
	for i := 0; i < 3; i++ {
		doc := syntheticProfile(int64(500+i), 3000)
		docs = append(docs, doc)
		if err := r.SaveProfile("a", doc); err != nil {
			t.Fatal(err)
		}
	}
	docB := syntheticProfile(900, 2000)
	if err := r.SaveProfile("b", docB); err != nil {
		t.Fatal(err)
	}

	stats, err := r.GC()
	if err != nil {
		t.Fatal(err)
	}
	if stats.BlobsFreed != 2 {
		t.Fatalf("gc freed %d blobs, want the 2 superseded versions of a: %s", stats.BlobsFreed, stats)
	}
	for _, old := range docs[:2] {
		if _, err := r.Get(IDOf(old)); !errors.Is(err, ErrProfileNotFound) {
			t.Fatalf("superseded version still stored after gc: %v", err)
		}
	}
	for sid, want := range map[string][]byte{"a": docs[2], "b": docB} {
		if got, err := r.GetSession(sid); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("head of %s damaged by gc: %v", sid, err)
		}
	}
	if rep := r.Check(); !rep.OK() {
		t.Fatalf("check after gc: %v", rep.Errors)
	}
}

func TestDamagedPackQuarantinedNotServed(t *testing.T) {
	r, be := openTestRepo(t)
	if err := r.SaveProfile("a", syntheticProfile(1, 16<<10)); err != nil {
		t.Fatal(err)
	}
	// Corrupt one pack on disk, then force a header rescan by removing the
	// index cache.
	packs, err := be.List(backend.PackType)
	if err != nil || len(packs) == 0 {
		t.Fatalf("expected packs: %v", err)
	}
	data, err := be.Load(backend.Handle{Type: backend.PackType, Name: packs[0]})
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff // break the end magic
	path := filepath.Join(be.Dir(), string(backend.PackType), packs[0])
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r2, err := Open(be, Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.DamagedPacks(); len(got) != 1 {
		t.Fatalf("damaged pack not quarantined: %v", got)
	}
	if _, err := r2.GetSession("a"); err == nil {
		t.Fatalf("session served from a damaged pack")
	}
	if rep := r2.Check(); rep.OK() {
		t.Fatalf("check passed with a referenced blob in a damaged pack")
	}
	_ = r
}

func TestObsCountersMove(t *testing.T) {
	be, err := backend.OpenLocal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := Init(be); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	r, err := Open(be, Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	data := syntheticProfile(7, 32<<10)
	if err := r.SaveProfile("a", data); err != nil {
		t.Fatal(err)
	}
	if err := r.SaveProfile("b", data); err != nil { // identical: one blob serves both
		t.Fatal(err)
	}
	if _, err := r.GC(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	find := func(name string) uint64 {
		for _, s := range snap.Scopes {
			if s.Name != ObsScopeRepo {
				continue
			}
			for _, c := range s.Counters {
				if c.Name == name {
					return c.Value
				}
			}
		}
		t.Fatalf("counter %s not in snapshot", name)
		return 0
	}
	if got := find("blobs_written"); got != 1 {
		t.Errorf("blobs_written = %d, want 1", got)
	}
	if got := find("bytes_written"); got != uint64(len(data)) {
		t.Errorf("bytes_written = %d, want %d", got, len(data))
	}
	if got := find("blobs_deduped"); got != 1 {
		t.Errorf("blobs_deduped = %d after an identical save, want 1", got)
	}
	if got := find("bytes_deduped"); got != uint64(len(data)) {
		t.Errorf("bytes_deduped = %d after an identical save, want %d", got, len(data))
	}
	if find("gc_runs") != 1 {
		t.Error("gc_runs != 1")
	}
}

// TestPackCountGaugeTracksIndex: the pack_count gauge, kept from the
// index's per-pack blob counts, equals the number of distinct packs the
// index's blobs reference, and the packs the backend holds, after puts
// flushed into one pack, saves, a re-save, a GC that repacks, and reopens
// from the index cache and from a pack scan.
func TestPackCountGaugeTracksIndex(t *testing.T) {
	be, err := backend.OpenLocal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := Init(be); err != nil {
		t.Fatal(err)
	}
	check := func(r *Repository, reg *obs.Registry, stage string) {
		t.Helper()
		walked := make(map[string]struct{})
		for _, e := range r.ix.blobs {
			walked[e.pack] = struct{}{}
		}
		stored, err := be.List(backend.PackType)
		if err != nil {
			t.Fatal(err)
		}
		got := reg.Scope(ObsScopeRepo).Gauge("pack_count").Load()
		if int(got) != len(walked) || len(r.ix.packNames()) != len(walked) || len(stored) != len(walked) {
			t.Fatalf("%s: pack_count %d, packNames %d, distinct packs in the index %d, packs stored %d",
				stage, got, len(r.ix.packNames()), len(walked), len(stored))
		}
	}

	reg := obs.NewRegistry()
	r, err := Open(be, Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	// Three profiles put and flushed together share one pack; once the
	// re-save of "a" leaves its first version dead, GC must repack the
	// other two out of that pack.
	docs := map[string][]byte{}
	for i, sid := range []string{"a", "b", "c"} {
		docs[sid] = syntheticProfile(int64(11+i), 48<<10)
		if _, err := r.Put(docs[sid]); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	check(r, reg, "flush of three puts")
	for _, sid := range []string{"a", "b", "c"} {
		if err := r.SaveProfile(sid, docs[sid]); err != nil {
			t.Fatal(err)
		}
		check(r, reg, "save "+sid)
	}
	if err := r.SaveProfile("a", syntheticProfile(19, 48<<10)); err != nil {
		t.Fatal(err)
	}
	check(r, reg, "re-save a")
	stats, err := r.GC()
	if err != nil {
		t.Fatal(err)
	}
	if stats.BlobsMoved == 0 || stats.PacksDeleted == 0 {
		t.Fatalf("gc did not repack: %+v", stats)
	}
	check(r, reg, "gc")
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	reg = obs.NewRegistry()
	if r, err = Open(be, Options{Obs: reg}); err != nil {
		t.Fatal(err)
	}
	check(r, reg, "reopen from the index cache")
	r.Close()
	names, err := be.List(backend.IndexType)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if err := be.Remove(backend.Handle{Type: backend.IndexType, Name: n}); err != nil {
			t.Fatal(err)
		}
	}
	reg = obs.NewRegistry()
	if r, err = Open(be, Options{Obs: reg}); err != nil {
		t.Fatal(err)
	}
	check(r, reg, "reopen from a pack scan")
	r.Close()
}

// TestIndexPackCountFollowsBlobs: the index counts a pack while it
// locates at least one blob. A duplicate keeps its first location unless
// overwritten, and an overwrite that moves a pack's last blob away stops
// counting that pack even before it is dropped.
func TestIndexPackCountFollowsBlobs(t *testing.T) {
	ix := newIndex()
	a, b := packEntry{typ: BlobProfile, id: IDOf([]byte("a"))}, packEntry{typ: BlobProfile, id: IDOf([]byte("b"))}
	check := func(stage string, want ...string) {
		t.Helper()
		if got := ix.packNames(); fmt.Sprint(got) != fmt.Sprint(want) || len(ix.packs) != len(want) {
			t.Fatalf("%s: packs %v (count %d), want %v", stage, got, len(ix.packs), want)
		}
	}
	ix.addPack("p1", []packEntry{a, b}, false)
	check("p1 added", "p1")
	ix.addPack("p2", []packEntry{a}, false)
	check("duplicate kept in p1", "p1")
	ix.addPack("p3", []packEntry{a}, true)
	check("a moved to p3", "p1", "p3")
	ix.addPack("p4", []packEntry{b}, true)
	check("b moved to p4", "p3", "p4")
	ix.dropPack("p1")
	check("p1 dropped", "p3", "p4")
	ix.dropPack("p3")
	check("p3 dropped", "p4")
	if _, ok := ix.lookup(a.id); ok {
		t.Fatal("dropping p3 kept its blob")
	}
}
