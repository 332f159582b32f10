package repo

// Roots hold heads only. Roots written by older builds also carried each
// session's save time and its superseded versions: such a root still
// opens and serves its heads, and the versions only it named are garbage
// for the next GC.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"aprof/internal/repo/backend"
)

// oldSnapshot and oldHistEntry are the root layout older builds wrote.
type oldSnapshot struct {
	Seq      uint64                    `json:"seq"`
	Sessions map[string]string         `json:"sessions"`
	SavedAt  map[string]int64          `json:"saved_at,omitempty"`
	History  map[string][]oldHistEntry `json:"history,omitempty"`
}

type oldHistEntry struct {
	Manifest string `json:"manifest"`
	SavedAt  int64  `json:"saved_at"`
}

// saveRawRoot saves data as a root under its SHA-256 name.
func saveRawRoot(t *testing.T, be backend.Backend, data []byte) {
	t.Helper()
	if err := be.Save(backend.Handle{Type: backend.SnapshotType, Name: IDOf(data).String()}, data); err != nil {
		t.Fatal(err)
	}
}

// putAndClose stores docs (no root references them yet) and closes r.
func putAndClose(t *testing.T, r *Repository, docs ...[]byte) {
	t.Helper()
	for _, doc := range docs {
		if _, err := r.Put(doc); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOldHistoryRootOpensAndGCFreesItsHistory(t *testing.T) {
	r, be := openTestRepo(t)
	headS, headT := syntheticProfile(1, 8<<10), syntheticProfile(2, 8<<10)
	old1, old2 := syntheticProfile(3, 8<<10), syntheticProfile(4, 8<<10)
	putAndClose(t, r, headS, headT, old1, old2)

	// s's history names old1, old2 and headT; headT is still t's head, so
	// only old1 and old2 are named by the history alone.
	root, err := json.Marshal(oldSnapshot{
		Seq:      7,
		Sessions: map[string]string{"s": IDOf(headS).String(), "t": IDOf(headT).String()},
		SavedAt:  map[string]int64{"s": 1_700_003_600, "t": 1_700_000_000},
		History: map[string][]oldHistEntry{"s": {
			{Manifest: IDOf(old2).String(), SavedAt: 1_700_002_400},
			{Manifest: IDOf(headT).String(), SavedAt: 1_700_001_200},
			{Manifest: IDOf(old1).String(), SavedAt: 1_700_000_000},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	saveRawRoot(t, be, root)

	r2, err := Open(be, Options{Logf: t.Logf})
	if err != nil {
		t.Fatalf("open over an old root: %v", err)
	}
	heads := map[string][]byte{"s": headS, "t": headT}
	checkHeads := func(stage string) {
		t.Helper()
		for sid, want := range heads {
			if got, err := r2.GetSession(sid); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: session %s: %d bytes, %v; want its head", stage, sid, len(got), err)
			}
		}
		if rep := r2.Check(); len(rep.Errors) != 0 {
			t.Fatalf("%s: check errors: %v", stage, rep.Errors)
		}
	}
	checkHeads("before gc")

	stats, err := r2.GC()
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(old1) + len(old2)); stats.BlobsFreed != 2 || stats.BytesFreed != want {
		t.Fatalf("gc freed %d blobs (%d bytes), want the 2 history-only blobs (%d bytes): %s",
			stats.BlobsFreed, stats.BytesFreed, want, stats)
	}
	for _, doc := range [][]byte{old1, old2} {
		if _, err := r2.Get(IDOf(doc)); !errors.Is(err, ErrProfileNotFound) {
			t.Fatalf("history-only blob %s still stored after gc: %v", IDOf(doc).Short(), err)
		}
	}
	checkHeads("after gc")
}

func TestRootWithUnknownMemberRefused(t *testing.T) {
	r, be := openTestRepo(t)
	doc := syntheticProfile(1, 4<<10)
	putAndClose(t, r, doc)
	saveRawRoot(t, be, []byte(fmt.Sprintf(`{"seq":1,"sessions":{"s":%q},"saved_at":{"s":1},"labels":{"s":"x"}}`, IDOf(doc).String())))

	if _, err := Open(be, Options{Logf: t.Logf}); err == nil || !strings.Contains(err.Error(), `unknown field "labels"`) {
		t.Fatalf("open over a root with an unknown member: %v, want an unknown-field error", err)
	}
}

// Re-saving one session never grows its root: after 100 saves of distinct
// documents the store holds one root, and it is exactly the encoding of
// the current heads.
func TestResavedRootHoldsHeadsOnly(t *testing.T) {
	r, be := openTestRepo(t)
	if err := r.SaveProfile("other", syntheticProfile(0, 1<<10)); err != nil {
		t.Fatal(err)
	}
	var last []byte
	for i := 1; i <= 100; i++ {
		last = syntheticProfile(int64(i), 2<<10)
		if err := r.SaveProfile("s", last); err != nil {
			t.Fatal(err)
		}
	}

	names, err := be.List(backend.SnapshotType)
	if err != nil {
		t.Fatal(err)
	}
	snaps := r.Snapshots()
	if len(names) != 1 || len(snaps) != 1 || snaps[0].Name != names[0] {
		t.Fatalf("store holds roots %v (view %v), want one", names, snaps)
	}
	data, err := be.Load(backend.Handle{Type: backend.SnapshotType, Name: names[0]})
	if err != nil {
		t.Fatal(err)
	}
	heads := r.Sessions()
	if len(heads) != 2 || heads["s"] != IDOf(last) {
		t.Fatalf("%d heads, s → %s; want other and the last save of s", len(heads), heads["s"].Short())
	}
	if want := encodeSnapshot(snaps[0].Seq, heads); !bytes.Equal(data, want) {
		t.Fatalf("root is %d bytes:\n%s\nwant the %d-byte encoding of the heads:\n%s", len(data), data, len(want), want)
	}
}
