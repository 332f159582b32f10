package main

import (
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"aprof/internal/repo"
	"aprof/internal/repo/backend"
)

// TestMain runs the command itself when the test binary is re-executed
// with APROFSTORE_RUN_MAIN set, so tests drive it as a subprocess without
// a separate build.
func TestMain(m *testing.M) {
	if os.Getenv("APROFSTORE_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// aprofstore runs the command with args and returns its combined output
// and exit code.
func aprofstore(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "APROFSTORE_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if exit, ok := err.(*exec.ExitError); ok {
		return string(out), exit.ExitCode()
	} else if err != nil {
		t.Fatalf("aprofstore %v: %v", args, err)
	}
	return string(out), 0
}

// copyDir copies the tree at src into a fresh temp dir.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
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
	return dst
}

// TestVersion1StoreRefused: every command that opens a store refuses one
// written by the version-1 (chunking) store, exiting 1 with the version
// error rather than a panic or a corrupt-pack report.
func TestVersion1StoreRefused(t *testing.T) {
	dir := copyDir(t, filepath.Join("..", "..", "internal", "repo", "testdata", "v1store"))
	for _, cmd := range []string{"check", "stats", "ls", "gc"} {
		out, code := aprofstore(t, cmd, dir)
		if code != 1 {
			t.Errorf("aprofstore %s exited %d, want 1:\n%s", cmd, code, out)
		}
		if !strings.Contains(out, "store is version 1") || !strings.Contains(out, "version 2") {
			t.Errorf("aprofstore %s does not name both versions:\n%s", cmd, out)
		}
		for _, bad := range []string{"panic", "corrupt pack"} {
			if strings.Contains(out, bad) {
				t.Errorf("aprofstore %s printed %q:\n%s", cmd, bad, out)
			}
		}
	}
}

// TestStatsCountsProfiles: stats reports whole-profile blobs, one per
// distinct document, however many sessions share it.
func TestStatsCountsProfiles(t *testing.T) {
	dir := t.TempDir()
	if out, code := aprofstore(t, "init", dir); code != 0 {
		t.Fatalf("init exited %d:\n%s", code, out)
	}
	be, err := backend.OpenLocal(dir)
	if err != nil {
		t.Fatal(err)
	}
	r, err := repo.Open(be, repo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	shared := []byte(`{"schema":1,"routines":[{"name":"main"}]}`)
	for sid, doc := range map[string][]byte{"a": shared, "b": shared, "c": []byte(`{"schema":1,"routines":[]}`)} {
		if err := r.SaveProfile(sid, doc); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	out, code := aprofstore(t, "stats", dir)
	if code != 0 {
		t.Fatalf("stats exited %d:\n%s", code, out)
	}
	for _, want := range []string{"sessions:       3\n", "blobs:          2 (2 referenced profiles)\n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats output lacks %q:\n%s", want, out)
		}
	}
	if out, code := aprofstore(t, "check", dir); code != 0 || !strings.Contains(out, "no errors") {
		t.Fatalf("check exited %d:\n%s", code, out)
	}
}
