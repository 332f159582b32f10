package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"aprof"
	"aprof/internal/trace"
)

func buildBinary(t *testing.T, dir, name, srcPkg string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, srcPkg)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", srcPkg, err, out)
	}
	return bin
}

// waitLine scans lines until match returns a result, with a deadline. A
// failure quotes the last lines the daemon printed, which say why it did
// not get there.
func waitLine(t *testing.T, lines <-chan string, what string, match func(string) (string, bool)) string {
	t.Helper()
	deadline := time.After(10 * time.Second)
	var tail []string
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("daemon exited before printing %s; its last stderr lines:\n%s", what, strings.Join(tail, "\n"))
			}
			if v, ok := match(line); ok {
				return v
			}
			if tail = append(tail, line); len(tail) > 10 {
				tail = tail[1:]
			}
		case <-deadline:
			t.Fatalf("timed out waiting for %s; the daemon's last stderr lines:\n%s", what, strings.Join(tail, "\n"))
		}
	}
}

// TestDaemonEndToEnd drives the real binaries: aprofd comes up, aprofsend
// uploads a trace, the profile is fetched over the debug HTTP endpoint and
// must be byte-identical to the offline pipeline, and SIGTERM drains the
// daemon to a clean exit.
func TestDaemonEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the aprofd and aprofsend binaries")
	}
	dir := t.TempDir()
	aprofd := buildBinary(t, dir, "aprofd", ".")
	aprofsend := buildBinary(t, dir, "aprofsend", "../aprofsend")

	tr := trace.Random(trace.RandomConfig{Seed: 40, Ops: 1500, Threads: 3})
	var buf bytes.Buffer
	if err := trace.WriteBinary2(&buf, tr); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	tracePath := filepath.Join(dir, "trace.bin")
	if err := os.WriteFile(tracePath, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	ps, err := aprof.ProfileTraceStreamContext(context.Background(), bytes.NewReader(enc), aprof.DefaultConfig(), aprof.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var wantBuf bytes.Buffer
	if err := aprof.WriteProfiles(&wantBuf, ps); err != nil {
		t.Fatal(err)
	}
	want := wantBuf.Bytes()

	resultDir := filepath.Join(dir, "results")
	daemon := exec.Command(aprofd,
		"-addr", "127.0.0.1:0",
		"-debug-addr", "127.0.0.1:0",
		"-checkpoint-dir", filepath.Join(dir, "ckpt"),
		"-result-dir", resultDir,
	)
	stderr, err := daemon.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer daemon.Process.Kill()

	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()

	debugAddr := waitLine(t, lines, "the debug-server line", func(line string) (string, bool) {
		_, rest, ok := strings.Cut(line, "debug server on http://")
		if !ok {
			return "", false
		}
		return strings.TrimSuffix(rest, "/profiles/"), true
	})
	addr := waitLine(t, lines, "the listening line", func(line string) (string, bool) {
		_, rest, ok := strings.Cut(line, "listening on ")
		return rest, ok
	})
	go func() { // keep draining so the daemon never blocks on stderr
		for range lines {
		}
	}()

	send := exec.Command(aprofsend, "-addr", addr, "-session", "e2e", tracePath)
	out, err := send.CombinedOutput()
	if err != nil {
		t.Fatalf("aprofsend: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "complete") {
		t.Fatalf("aprofsend output: %s", out)
	}

	resp, err := http.Get("http://" + debugAddr + "/profiles/e2e")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
		t.Fatalf("HTTP profile: status %d, matches offline pipeline: %v", resp.StatusCode, bytes.Equal(body, want))
	}
	onDisk, err := os.ReadFile(filepath.Join(resultDir, "e2e.json"))
	if err != nil || !bytes.Equal(onDisk, want) {
		t.Fatalf("result-dir profile: %v, matches: %v", err, bytes.Equal(onDisk, want))
	}

	// SIGTERM with nothing in flight: a prompt, clean drain.
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- daemon.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon drain exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
}

// startDaemon launches one aprofd and reports its TCP and debug addresses.
func startDaemon(t *testing.T, bin string, args ...string) (proc *exec.Cmd, addr, debugAddr string) {
	t.Helper()
	daemon := exec.Command(bin, args...)
	stderr, err := daemon.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { daemon.Process.Kill() })

	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	debugAddr = waitLine(t, lines, "the debug-server line", func(line string) (string, bool) {
		_, rest, ok := strings.Cut(line, "debug server on http://")
		if !ok {
			return "", false
		}
		return strings.TrimSuffix(rest, "/profiles/"), true
	})
	addr = waitLine(t, lines, "the listening line", func(line string) (string, bool) {
		_, rest, ok := strings.Cut(line, "listening on ")
		return rest, ok
	})
	go func() { // keep draining so the daemon never blocks on stderr
		for range lines {
		}
	}()
	return daemon, addr, debugAddr
}

// TestClusterEndToEnd drives a three-binary replicating cluster, each node
// with its own -store: one node is SIGKILLed before the upload, aprofsend
// -cluster routes around it by ring-successor failover, and a surviving
// node's fan-out endpoint serves the profile cluster-wide — byte-identical
// to the offline pipeline, with the index honestly flagged partial while a
// peer is dead.
func TestClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the aprofd and aprofsend binaries")
	}
	dir := t.TempDir()
	aprofd := buildBinary(t, dir, "aprofd", ".")
	aprofsend := buildBinary(t, dir, "aprofsend", "../aprofsend")

	tr := trace.Random(trace.RandomConfig{Seed: 41, Ops: 1200, Threads: 3})
	var buf bytes.Buffer
	if err := trace.WriteBinary2(&buf, tr); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	tracePath := filepath.Join(dir, "trace.bin")
	if err := os.WriteFile(tracePath, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	ps, err := aprof.ProfileTraceStreamContext(context.Background(), bytes.NewReader(enc), aprof.DefaultConfig(), aprof.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var wantBuf bytes.Buffer
	if err := aprof.WriteProfiles(&wantBuf, ps); err != nil {
		t.Fatal(err)
	}
	want := wantBuf.Bytes()

	// -replicate-peers names every member, so the ingest ports are
	// reserved before any daemon starts. Nothing is shared on disk.
	addrs := reservePorts(t, 3)
	peers := strings.Join(addrs, ",")
	nodeArgs := func(i int) []string {
		return []string{"-addr", addrs[i], "-debug-addr", "127.0.0.1:0",
			"-store", filepath.Join(dir, fmt.Sprintf("store%d", i)), "-replicate-peers", peers}
	}
	a, addrA, _ := startDaemon(t, aprofd, nodeArgs(0)...)
	_, addrB, dbgB := startDaemon(t, aprofd, nodeArgs(1)...)
	_, addrC, dbgC := startDaemon(t, aprofd, append(nodeArgs(2), "-cluster-peers", dbgB)...)

	// Node A dies hard before the upload: failover must route around it.
	if err := a.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	a.Wait()

	send := exec.Command(aprofsend,
		"-cluster", strings.Join([]string{addrA, addrB, addrC}, ","),
		"-session", "clustered", "-backoff", "10ms", "-v", tracePath)
	out, err := send.CombinedOutput()
	if err != nil {
		t.Fatalf("aprofsend -cluster: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "complete") {
		t.Fatalf("aprofsend output: %s", out)
	}

	// Node C's fan-out serves the profile wherever it landed (locally or
	// via its peer B).
	resp, err := http.Get("http://" + dbgC + "/profiles/clustered")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
		t.Fatalf("cluster profile: status %d, matches offline pipeline: %v", resp.StatusCode, bytes.Equal(body, want))
	}
	resp, err = http.Get("http://" + dbgC + "/profiles/")
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(idx), `"clustered"`) {
		t.Fatalf("cluster index is missing the session: %s", idx)
	}
}

// reservePorts returns n free loopback addresses for daemons that must
// know the whole membership up front. The ports lie below the kernel's
// ephemeral range: a port in it, once released here, can be handed out
// again before the daemon binds it — to a ":0" bind such as -debug-addr,
// or as the source port of a peer dial. Below the range only an explicit
// bind takes a port. The probe starts at a pid-derived offset, so
// concurrent test processes rarely contend for the same ports.
func reservePorts(t *testing.T, n int) []string {
	t.Helper()
	const base = 10000
	end := 32768 // Linux's default first ephemeral port
	if b, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		if f := strings.Fields(string(b)); len(f) == 2 {
			if lo, err := strconv.Atoi(f[0]); err == nil {
				end = lo
			}
		}
	}
	if end-base < 100*n {
		t.Fatalf("the ephemeral port range starts at %d: no room below it", end)
	}
	var addrs []string
	for port := base + os.Getpid()%(end-base-50*n); len(addrs) < n && port < end; port++ {
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			continue
		}
		ln.Close()
		addrs = append(addrs, addr)
	}
	if len(addrs) < n {
		t.Fatalf("found %d free ports below %d, want %d", len(addrs), end, n)
	}
	return addrs
}

// TestClusterFlagConflictsRefused: aprofd refuses the shared-checkpoint
// cluster configurations — a cluster member without replication, and a
// replicating node with a checkpoint dir — at start, naming the conflict.
func TestClusterFlagConflictsRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the aprofd binary")
	}
	dir := t.TempDir()
	aprofd := buildBinary(t, dir, "aprofd", ".")
	addr := reservePorts(t, 1)[0]
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-cluster-peers", "127.0.0.1:1", "-checkpoint-dir", filepath.Join(dir, "ckpt")},
			"-cluster-peers needs -replicate-peers"},
		{[]string{"-replicate-peers", addr, "-checkpoint-dir", filepath.Join(dir, "ckpt")},
			"-checkpoint-dir cannot be used with -replicate-peers"},
	} {
		// A daemon that accepts the flags runs until the deadline kills it.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		out, err := exec.CommandContext(ctx, aprofd, append([]string{"-addr", addr}, tc.args...)...).CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("aprofd %v: got %v, want exit status 1\n%s", tc.args, err, out)
		}
		if !strings.Contains(string(out), tc.want) {
			t.Fatalf("aprofd %v: output does not name the conflict %q:\n%s", tc.args, tc.want, out)
		}
	}
}
