package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"aprof/internal/trace"
)

// TestStoreEndToEnd drives the full repository path with the real
// binaries: aprofd -store persists two uploaded sessions into a profile
// repository; a restarted daemon serves them from the store alone;
// aprofdiff -store produces byte-identical output (and the same exit
// code) as aprofdiff over the flat -result-dir files; and aprofstore
// ls/stats/gc/check manage the same repository.
func TestStoreEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the aprofd, aprofsend, aprofdiff and aprofstore binaries")
	}
	dir := t.TempDir()
	aprofd := buildBinary(t, dir, "aprofd", ".")
	aprofsend := buildBinary(t, dir, "aprofsend", "../aprofsend")
	aprofdiff := buildBinary(t, dir, "aprofdiff", "../aprofdiff")
	aprofstore := buildBinary(t, dir, "aprofstore", "../aprofstore")

	writeTrace := func(name string, seed int64) string {
		tr := trace.Random(trace.RandomConfig{Seed: seed, Ops: 1200, Threads: 3})
		var buf bytes.Buffer
		if err := trace.WriteBinary2(&buf, tr); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	oldTrace := writeTrace("old.bin", 50)
	newTrace := writeTrace("new.bin", 51)

	resultDir := filepath.Join(dir, "results")
	storeDir := filepath.Join(dir, "store")
	daemon, addr, _ := startDaemon(t, aprofd,
		"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0",
		"-checkpoint-dir", filepath.Join(dir, "ckpt"),
		"-result-dir", resultDir, "-store", storeDir)

	for sid, tracePath := range map[string]string{"run-old": oldTrace, "run-new": newTrace} {
		out, err := exec.Command(aprofsend, "-addr", addr, "-session", sid, tracePath).CombinedOutput()
		if err != nil {
			t.Fatalf("aprofsend %s: %v\n%s", sid, err, out)
		}
	}

	// Drain the daemon; the store must hold both sessions durably.
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitExit(t, daemon, "first daemon")

	// A restarted daemon with ONLY the store (no -result-dir) serves the
	// sessions over /profiles/, byte-identical to the flat files.
	daemon2, _, dbg2 := startDaemon(t, aprofd,
		"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0", "-store", storeDir)
	for _, sid := range []string{"run-old", "run-new"} {
		flat, err := os.ReadFile(filepath.Join(resultDir, sid+".json"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get("http://" + dbg2 + "/profiles/" + sid)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, flat) {
			t.Fatalf("restarted daemon /profiles/%s: status %d, matches flat file: %v",
				sid, resp.StatusCode, bytes.Equal(body, flat))
		}
	}
	daemon2.Process.Signal(syscall.SIGTERM)
	waitExit(t, daemon2, "second daemon")

	// aprofdiff over the store must match aprofdiff over the flat files:
	// same report bytes, same exit code.
	flatCmd := exec.Command(aprofdiff,
		filepath.Join(resultDir, "run-old.json"), filepath.Join(resultDir, "run-new.json"))
	flatOut, flatErr := flatCmd.Output()
	storeCmd := exec.Command(aprofdiff, "-store", storeDir, "run-old", "run-new")
	storeOut, storeErr := storeCmd.Output()
	if !bytes.Equal(flatOut, storeOut) {
		t.Fatalf("aprofdiff output diverges between flat files and store:\n--- flat ---\n%s\n--- store ---\n%s", flatOut, storeOut)
	}
	if exitCode(flatErr) != exitCode(storeErr) {
		t.Fatalf("aprofdiff exit codes diverge: flat %d, store %d", exitCode(flatErr), exitCode(storeErr))
	}

	// aprofstore manages the same repository: ls shows both sessions, gc
	// runs clean, and check verifies everything with exit 0.
	lsOut, err := exec.Command(aprofstore, "ls", storeDir).CombinedOutput()
	if err != nil {
		t.Fatalf("aprofstore ls: %v\n%s", err, lsOut)
	}
	for _, sid := range []string{"run-old", "run-new"} {
		if !strings.Contains(string(lsOut), sid) {
			t.Fatalf("aprofstore ls is missing %s:\n%s", sid, lsOut)
		}
	}
	if out, err := exec.Command(aprofstore, "stats", storeDir).CombinedOutput(); err != nil {
		t.Fatalf("aprofstore stats: %v\n%s", err, out)
	}
	if out, err := exec.Command(aprofstore, "gc", storeDir).CombinedOutput(); err != nil {
		t.Fatalf("aprofstore gc: %v\n%s", err, out)
	}
	out, err := exec.Command(aprofstore, "check", storeDir).CombinedOutput()
	if err != nil {
		t.Fatalf("aprofstore check: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "no errors") {
		t.Fatalf("aprofstore check output: %s", out)
	}
}

// waitExit waits for a daemon to exit cleanly within the e2e deadline.
func waitExit(t *testing.T, daemon *exec.Cmd, what string) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- daemon.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s exit: %v", what, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not exit after SIGTERM", what)
	}
}

// exitCode maps an exec error to the process exit code (0 on nil).
func exitCode(err error) int {
	if err == nil {
		return 0
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode()
	}
	return -1
}
