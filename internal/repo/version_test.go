package repo_test

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aprof/internal/repo"
	"aprof/internal/repo/backend"
)

// copyV1Store copies testdata/v1store — one session saved by the
// version-1 store, which split profiles into chunks reassembled by a
// manifest blob — into a temp dir and opens it as a backend.
func copyV1Store(t *testing.T) *backend.Local {
	t.Helper()
	dst := t.TempDir()
	src := filepath.Join("testdata", "v1store")
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Join(dst, filepath.Dir(rel)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	be, err := backend.OpenLocal(dst)
	if err != nil {
		t.Fatal(err)
	}
	return be
}

// wantVersionError fails the test unless err is the unsupported-version
// error and names both the store's version and this build's.
func wantVersionError(t *testing.T, what string, err error) {
	t.Helper()
	if !errors.Is(err, repo.ErrUnsupportedVersion) {
		t.Fatalf("%s = %v, want ErrUnsupportedVersion", what, err)
	}
	for _, v := range []string{"version 1", "version 2"} {
		if !strings.Contains(err.Error(), v) {
			t.Fatalf("%s error %q does not name %s", what, err, v)
		}
	}
}

func TestOpenRefusesVersion1Store(t *testing.T) {
	be := copyV1Store(t)
	_, err := repo.Open(be, repo.Options{Logf: t.Logf})
	wantVersionError(t, "Open", err)
	_, err = repo.OpenOrInit(be, repo.Options{Logf: t.Logf})
	wantVersionError(t, "OpenOrInit", err)
}

// TestVersion1BlobsNeverServed: a version-1 pack holds chunk and manifest
// blobs, whose types the decoder refuses. So even under a config that
// claims the current version, the old pack is quarantined, its session is
// not served, and Check fails it.
func TestVersion1BlobsNeverServed(t *testing.T) {
	for _, typ := range []repo.BlobType{1, 2} {
		data := []byte(`{"size":0,"chunks":[]}`)
		pack := repo.EncodePack([]repo.Blob{{Type: typ, ID: repo.IDOf(data), Data: data}})
		if _, err := repo.DecodePack(pack); !errors.Is(err, repo.ErrPackCorrupt) {
			t.Fatalf("pack of a type-%d blob decoded: %v", typ, err)
		}
	}

	be := copyV1Store(t)
	if err := be.Save(backend.Handle{Type: backend.ConfigType, Name: "config"}, []byte(`{"version":2}`)); err != nil {
		t.Fatal(err)
	}
	r, err := repo.Open(be, repo.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.DamagedPacks(); len(got) != 1 {
		t.Fatalf("damaged packs = %v, want the one version-1 pack", got)
	}
	if _, err := r.GetSession("v1-session"); !errors.Is(err, repo.ErrProfileNotFound) {
		t.Fatalf("GetSession of a version-1 session = %v, want ErrProfileNotFound", err)
	}
	if rep := r.Check(); rep.OK() {
		t.Fatal("check passed a session whose only copy is version-1 blobs")
	}
}

// TestSyncRefusesVersion1Remote: Sync reads the remote's config before
// anything else and refuses a version-1 peer with the error Open gives,
// pulling nothing.
func TestSyncRefusesVersion1Remote(t *testing.T) {
	remote := copyV1Store(t)
	local, err := backend.OpenLocal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r, err := repo.OpenOrInit(local, repo.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := r.Sync(remote)
	wantVersionError(t, "Sync", err)
	if stats != (repo.SyncStats{}) {
		t.Fatalf("refused sync did work: %s", stats)
	}
	if packs, err := local.List(backend.PackType); err != nil || len(packs) != 0 {
		t.Fatalf("refused sync left packs %v (%v)", packs, err)
	}
	if ids := r.SessionIDs(); len(ids) != 0 {
		t.Fatalf("refused sync adopted sessions %v", ids)
	}
}
