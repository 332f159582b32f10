package server_test

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aprof/internal/core"
	"aprof/internal/obs"
	"aprof/internal/profio"
	"aprof/internal/server"
	"aprof/internal/server/client"
	"aprof/internal/trace"
)

// testTrace encodes a random trace to APT2 bytes.
func testTrace(t *testing.T, seed int64, ops int) []byte {
	t.Helper()
	tr := trace.Random(trace.RandomConfig{Seed: seed, Ops: ops, Threads: 3})
	var buf bytes.Buffer
	if err := trace.WriteBinary2(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// offlineProfile runs the plain offline pipeline over enc — the reference
// the daemon must match byte for byte.
func offlineProfile(t *testing.T, enc []byte) []byte {
	t.Helper()
	ps, err := profio.ProfileStream(context.Background(), bytes.NewReader(enc), core.DefaultConfig(), profio.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := profio.Write(&buf, ps); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// startServer fills test defaults, starts a daemon on a loopback port, and
// tears it down with the test.
func startServer(t *testing.T, opts server.Options) *server.Server {
	t.Helper()
	if opts.Config.CounterLimit == 0 {
		opts.Config = core.DefaultConfig()
	}
	if opts.BatchSize == 0 {
		opts.BatchSize = 16
	}
	if opts.CheckpointEvery == 0 {
		opts.CheckpointEvery = 64
	}
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	s := server.New(opts)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Abort()
		s.Wait()
	})
	return s
}

// opener adapts trace bytes to the client's restartable source.
func opener(enc []byte) func() (io.ReadCloser, error) {
	return func() (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(enc)), nil
	}
}

// waitNoLeak polls until the goroutine count returns to its baseline —
// the PR 4 leak-audit pattern.
func waitNoLeak(t *testing.T, before int) {
	t.Helper()
	for i := 0; ; i++ {
		if after := runtime.NumGoroutine(); after <= before {
			return
		} else if i >= 250 {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDaemonCleanSessionMatchesOffline: the baseline guarantee — a session
// streamed through the daemon produces the byte-identical profile of the
// offline pipeline, and the final record carries the delivered count.
func TestDaemonCleanSessionMatchesOffline(t *testing.T) {
	enc := testTrace(t, 1, 1500)
	want := offlineProfile(t, enc)
	s := startServer(t, server.Options{})

	res, err := client.Run(context.Background(), client.Options{
		Addr: s.Addr(), SessionID: "clean", Open: opener(enc),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 || res.Acks == 0 {
		t.Fatalf("no progress recorded: %+v", res)
	}
	got, ok := s.Result("clean")
	if !ok {
		t.Fatal("no result stored for completed session")
	}
	if !bytes.Equal(got.Profile, want) {
		t.Fatal("daemon profile differs from offline pipeline")
	}
	if got.Delivered != res.Delivered {
		t.Fatalf("server delivered %d, client saw %d", got.Delivered, res.Delivered)
	}
}

// TestHandshakeRejects: malformed hellos must be answered with a status
// error, not crash or hang the daemon; unknown flag bits are not malformed.
func TestHandshakeRejects(t *testing.T) {
	s := startServer(t, server.Options{})
	cases := map[string][]byte{
		"bad magic":   []byte("NOPE\x01\x00\x03abc"),
		"bad version": []byte("APRD\x63\x00\x03abc"),
		"empty id":    []byte("APRD\x01\x00\x00"),
		"bad id":      append(server.AppendHandshake(nil, "ok", false)[:6], append([]byte{4}, "a/.."...)...),
	}
	for name, hello := range cases {
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.Write(hello)
		resp, err := server.ReadResponse(bufio.NewReader(conn))
		if err != nil {
			t.Fatalf("%s: reading response: %v", name, err)
		}
		if resp.Status != server.StatusError {
			t.Errorf("%s: status %q, want error", name, resp.Status)
		}
		conn.Close()
	}

	// An unknown flag bit is not malformed: a hello with the retired bit
	// 1<<2 set is accepted and yields the offline profile.
	enc := testTrace(t, 3, 600)
	hello := server.AppendHandshake(nil, "bit2", false)
	hello[5] |= 1 << 2
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write(hello)
	br := bufio.NewReader(conn)
	resp, err := server.ReadResponse(br)
	if err != nil || resp.Status != server.StatusOK {
		t.Fatalf("bit 2 hello: status %q, err %v; want accepted", resp.Status, err)
	}
	conn.Write(enc)
	conn.(*net.TCPConn).CloseWrite()
	for {
		rec, err := server.ReadRecord(br)
		if err != nil {
			t.Fatalf("bit 2 session: %v", err)
		}
		if rec.Kind == server.RecError {
			t.Fatalf("bit 2 session failed: %s", rec.Msg)
		}
		if rec.Kind == server.RecFinal {
			break
		}
	}
	got, ok := s.Result("bit2")
	if !ok || !bytes.Equal(got.Profile, offlineProfile(t, enc)) {
		t.Fatal("bit 2 session profile differs from offline pipeline")
	}
}

// TestValidSessionID pins the id alphabet: anything that could escape the
// checkpoint directory is rejected.
func TestValidSessionID(t *testing.T) {
	for _, ok := range []string{"a", "build-42", "x.y_z", strings.Repeat("a", 64)} {
		if !server.ValidSessionID(ok) {
			t.Errorf("server.ValidSessionID(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "a/b", "..", "a b", "a\x00b", strings.Repeat("a", 65)} {
		if server.ValidSessionID(bad) {
			t.Errorf("server.ValidSessionID(%q) = true", bad)
		}
	}
}

// TestBusySheds: at the session cap (and for a duplicate id) the daemon
// must answer busy immediately — explicit shedding, not queueing.
func TestBusySheds(t *testing.T) {
	enc := testTrace(t, 2, 1200)
	reg := obs.NewRegistry()
	gate := make(chan struct{})
	var once bool
	s := startServer(t, server.Options{
		MaxSessions: 1,
		Obs:         reg,
		OnSessionBatch: func(id string, batch int, delivered uint64) {
			if !once {
				once = true
				<-gate // hold the only slot while the probes run
			}
		},
	})
	defer close(gate)

	first := make(chan error, 1)
	go func() {
		_, err := client.Run(context.Background(), client.Options{
			Addr: s.Addr(), SessionID: "holder", Open: opener(enc),
		})
		first <- err
	}()

	// Wait until the holder occupies the slot.
	for i := 0; ; i++ {
		if reg.Scope(server.ObsScopeServer).Gauge("active_sessions").Load() == 1 {
			break
		}
		if i > 500 {
			t.Fatal("holder session never became active")
		}
		time.Sleep(2 * time.Millisecond)
	}

	for _, id := range []string{"probe", "holder"} {
		_, err := client.Run(context.Background(), client.Options{
			Addr: s.Addr(), SessionID: id, Open: opener(enc),
			MaxAttempts: 1, MaxBusyAttempts: 1, Backoff: time.Millisecond,
		})
		if err == nil || !strings.Contains(err.Error(), "busy") {
			t.Fatalf("session %q during overload: err = %v, want busy", id, err)
		}
	}
	if shed := reg.Scope(server.ObsScopeServer).Counter("sessions_shed").Load(); shed != 2 {
		t.Errorf("sessions_shed = %d, want 2", shed)
	}

	gate <- struct{}{} // release the holder
	if err := <-first; err != nil {
		t.Fatalf("holder session failed: %v", err)
	}
}

// TestEventLimitIsPermanent: exceeding MaxSessionEvents must be reported
// as permanent — retrying an oversized trace cannot succeed.
func TestEventLimitIsPermanent(t *testing.T) {
	enc := testTrace(t, 3, 1200)
	s := startServer(t, server.Options{MaxSessionEvents: 100, BatchSize: 32})
	_, err := client.Run(context.Background(), client.Options{
		Addr: s.Addr(), SessionID: "big", Open: opener(enc),
	})
	if !errors.Is(err, client.ErrPermanent) {
		t.Fatalf("err = %v, want ErrPermanent", err)
	}
	if !strings.Contains(err.Error(), "event limit") {
		t.Fatalf("err = %v, want event limit mention", err)
	}
}

// TestConnByteLimitResumesAcrossReconnects: the byte budget is per
// connection, so a tripped session is transient — its checkpoint survives
// and an unlimited server finishes it to the byte-identical profile.
func TestConnByteLimitResumesAcrossReconnects(t *testing.T) {
	enc := testTrace(t, 4, 1500)
	want := offlineProfile(t, enc)
	dir := t.TempDir()

	limited := startServer(t, server.Options{
		MaxConnBytes:    int64(len(enc)) * 3 / 4,
		CheckpointDir:   dir,
		CheckpointEvery: 16,
	})
	_, err := client.Run(context.Background(), client.Options{
		Addr: limited.Addr(), SessionID: "metered", Open: opener(enc),
		MaxAttempts: 2, Backoff: time.Millisecond,
	})
	if err == nil {
		t.Fatal("session under byte limit unexpectedly completed")
	}
	if errors.Is(err, client.ErrPermanent) {
		t.Fatalf("byte limit reported permanent: %v", err)
	}
	if _, serr := os.Stat(filepath.Join(dir, "metered.rck")); serr != nil {
		t.Fatalf("no checkpoint survived the byte-limited attempts: %v", serr)
	}
	limited.Abort()
	limited.Wait()

	free := startServer(t, server.Options{CheckpointDir: dir, CheckpointEvery: 16})
	res, err := client.Run(context.Background(), client.Options{
		Addr: free.Addr(), SessionID: "metered", Open: opener(enc),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedFrom == 0 {
		t.Fatal("second server did not resume from the checkpoint")
	}
	got, _ := free.Result("metered")
	if got == nil || !bytes.Equal(got.Profile, want) {
		t.Fatal("resumed profile differs from offline pipeline")
	}
}

// TestCorruptCheckpointDiscarded: a corrupt checkpoint must cost only the
// resume — the daemon discards it and serves the session fresh.
func TestCorruptCheckpointDiscarded(t *testing.T) {
	enc := testTrace(t, 5, 900)
	want := offlineProfile(t, enc)
	dir := t.TempDir()
	path := filepath.Join(dir, "scarred.rck")
	if err := os.WriteFile(path, []byte("APCKgarbage-not-a-checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s := startServer(t, server.Options{CheckpointDir: dir, Obs: reg})

	res, err := client.Run(context.Background(), client.Options{
		Addr: s.Addr(), SessionID: "scarred", Open: opener(enc),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedFrom != 0 {
		t.Fatalf("resumed from %d via a corrupt checkpoint", res.ResumedFrom)
	}
	if n := reg.Scope(server.ObsScopeServer).Counter("checkpoints_discarded").Load(); n != 1 {
		t.Errorf("checkpoints_discarded = %d, want 1", n)
	}
	got, _ := s.Result("scarred")
	if got == nil || !bytes.Equal(got.Profile, want) {
		t.Fatal("fresh session after discard differs from offline pipeline")
	}
}

// TestStrayCheckpointTempsSweptAtStart: a crash inside a checkpoint log
// replacement leaves its temp file in the checkpoint directory; a daemon
// starting over that directory removes every such file, however recently
// written, and leaves everything else — the .apck logs of older builds and
// their temps included.
func TestStrayCheckpointTempsSweptAtStart(t *testing.T) {
	dir := t.TempDir()
	strays := []string{".crashed.rck.tmp2718281828", ".writing.rck.tmp3141592653"}
	keep := []string{"crashed.apck", ".crashed.apck.tmp2718281828", ".notes", "other.json"}
	for _, name := range append(append([]string(nil), strays...), keep...) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	startServer(t, server.Options{CheckpointDir: dir})
	for _, name := range strays {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("stray temp file %s survived the daemon's start (stat: %v)", name, err)
		}
	}
	for _, name := range keep {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("%s was removed by the sweep: %v", name, err)
		}
	}
}

// TestReusedSessionIDWithOtherTraceStartsFresh: a daemon killed mid-session
// leaves the session's checkpoint behind, and a different trace — another
// symbol table — is then uploaded under the same id. The checkpoint can
// never resume it: the daemon must discard it on the mismatch and fail the
// attempt transiently, so the retry starts fresh and completes
// byte-identical to the offline profile of the new trace.
func TestReusedSessionIDWithOtherTraceStartsFresh(t *testing.T) {
	first := testTrace(t, 7, 1200)
	tr := trace.Random(trace.RandomConfig{Seed: 8, Ops: 900, Threads: 3, Routines: 9})
	var buf bytes.Buffer
	if err := trace.WriteBinary2(&buf, tr); err != nil {
		t.Fatal(err)
	}
	second := buf.Bytes()
	want := offlineProfile(t, second)
	dir := t.TempDir()

	var victim atomic.Pointer[server.Server]
	s1 := startServer(t, server.Options{
		CheckpointDir: dir, CheckpointEvery: 8, BatchSize: 16,
		OnSessionBatch: func(id string, batch int, delivered uint64) {
			if batch == 20 {
				victim.Load().Abort()
			}
		},
	})
	victim.Store(s1)
	if _, err := client.Run(context.Background(), client.Options{
		Addr: s1.Addr(), SessionID: "reused", Open: opener(first), MaxAttempts: 1,
	}); err == nil {
		t.Fatal("session survived a daemon kill")
	}
	s1.Wait()

	reg := obs.NewRegistry()
	s2 := startServer(t, server.Options{CheckpointDir: dir, CheckpointEvery: 8, BatchSize: 16, Obs: reg})
	if _, err := client.Run(context.Background(), client.Options{
		Addr: s2.Addr(), SessionID: "reused", Open: opener(second),
		MaxAttempts: 3, Backoff: time.Millisecond,
	}); err != nil {
		t.Fatalf("upload of the other trace: %v", err)
	}
	if n := reg.Scope(server.ObsScopeServer).Counter("checkpoints_discarded").Load(); n != 1 {
		t.Errorf("checkpoints_discarded = %d, want 1", n)
	}
	got, _ := s2.Result("reused")
	if got == nil || !bytes.Equal(got.Profile, want) {
		t.Fatal("profile differs from the offline pipeline")
	}
}

// TestUnusableCheckpointDirFailsSessions: a checkpoint directory the
// daemon cannot use must never leave it running without durability: every
// session fails transiently at its first checkpoint.
func TestUnusableCheckpointDirFailsSessions(t *testing.T) {
	enc := testTrace(t, 9, 900)
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := startServer(t, server.Options{CheckpointDir: notDir, CheckpointEvery: 4, BatchSize: 16})
	_, err := client.Run(context.Background(), client.Options{
		Addr: s.Addr(), SessionID: "undurable", Open: opener(enc),
		MaxAttempts: 2, Backoff: time.Millisecond,
	})
	if err == nil {
		t.Fatal("session completed without a usable checkpoint directory")
	}
	if errors.Is(err, client.ErrPermanent) {
		t.Fatalf("failure reported permanent: %v", err)
	}
	if !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("failure does not name the checkpoint: %v", err)
	}
	if _, ok := s.Result("undurable"); ok {
		t.Fatal("a result was published")
	}
}

// TestSessionPanicIsolated: a panic inside one session (here, from the
// operational hook) must surface as that session's error while the daemon
// keeps serving other sessions.
func TestSessionPanicIsolated(t *testing.T) {
	enc := testTrace(t, 6, 900)
	reg := obs.NewRegistry()
	s := startServer(t, server.Options{
		Obs: reg,
		OnSessionBatch: func(id string, batch int, delivered uint64) {
			if id == "boom" && batch == 2 {
				panic("injected session panic")
			}
		},
	})

	_, err := client.Run(context.Background(), client.Options{
		Addr: s.Addr(), SessionID: "boom", Open: opener(enc),
		MaxAttempts: 1, Backoff: time.Millisecond,
	})
	if err == nil {
		t.Fatal("panicking session reported success")
	}
	if n := reg.Scope(server.ObsScopeServer).Counter("panics_recovered").Load(); n != 1 {
		t.Fatalf("panics_recovered = %d, want 1", n)
	}

	// The daemon survived: a normal session still completes.
	if _, err := client.Run(context.Background(), client.Options{
		Addr: s.Addr(), SessionID: "after", Open: opener(enc),
	}); err != nil {
		t.Fatalf("session after panic: %v", err)
	}
}

// TestSlowLorisTimesOut: a client that connects and trickles nothing must
// be cut off by the idle deadline, freeing its slot.
func TestSlowLorisTimesOut(t *testing.T) {
	enc := testTrace(t, 7, 600)
	s := startServer(t, server.Options{MaxSessions: 1, IdleTimeout: 50 * time.Millisecond})

	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write(server.AppendHandshake(nil, "loris", false))
	br := bufio.NewReader(conn)
	if resp, err := server.ReadResponse(br); err != nil || resp.Status != server.StatusOK {
		t.Fatalf("handshake: %+v, %v", resp, err)
	}
	// ... and then send nothing. The server must fail the session and free
	// the only slot well before a real client would give up.
	deadline := time.Now().Add(5 * time.Second)
	conn.SetReadDeadline(deadline)
	rec, err := server.ReadRecord(br)
	if err != nil || rec.Kind != server.RecError {
		t.Fatalf("stalled session record = %+v, %v; want error record", rec, err)
	}

	if _, err := client.Run(context.Background(), client.Options{
		Addr: s.Addr(), SessionID: "prompt", Open: opener(enc),
		MaxAttempts: 3, Backoff: 10 * time.Millisecond,
	}); err != nil {
		t.Fatalf("session after slow-loris eviction: %v", err)
	}
}

// TestProfilesHandler: the debug mux endpoint serves the index and the
// per-session profile document.
func TestProfilesHandler(t *testing.T) {
	enc := testTrace(t, 8, 700)
	want := offlineProfile(t, enc)
	dir := t.TempDir()
	s := startServer(t, server.Options{ResultDir: dir})
	if _, err := client.Run(context.Background(), client.Options{
		Addr: s.Addr(), SessionID: "web", Open: opener(enc),
	}); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(s.ProfilesHandler())
	defer ts.Close()

	get := func(path string) (int, []byte) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}
	if code, body := get("/profiles/"); code != http.StatusOK || !strings.Contains(string(body), `"web"`) {
		t.Fatalf("index = %d %q", code, body)
	}
	if code, body := get("/profiles/web"); code != http.StatusOK || !bytes.Equal(body, want) {
		t.Fatalf("profile endpoint returned %d, matching=%v", code, bytes.Equal(body, want))
	}
	if code, _ := get("/profiles/nope"); code != http.StatusNotFound {
		t.Fatalf("missing profile = %d, want 404", code)
	}

	// ResultDir got the same document, atomically renamed into place.
	onDisk, err := os.ReadFile(filepath.Join(dir, "web.json"))
	if err != nil || !bytes.Equal(onDisk, want) {
		t.Fatalf("ResultDir document: %v, matching=%v", err, bytes.Equal(onDisk, want))
	}
}

// TestShutdownLeavesNoGoroutines: after serving sessions and draining, the
// daemon must join every goroutine it started.
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	enc := testTrace(t, 9, 800)
	before := runtime.NumGoroutine()
	s := server.New(server.Options{Config: core.DefaultConfig(), BatchSize: 16, Logf: t.Logf})
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := client.Run(context.Background(), client.Options{
			Addr: s.Addr(), SessionID: "drain-" + string(rune('a'+i)), Open: opener(enc),
		}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain with no in-flight sessions: %v", err)
	}
	waitNoLeak(t, before)
}
