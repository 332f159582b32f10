package server_test

// The network chaos suite: the daemon and its reconnecting client against
// deterministic link failures — mid-frame resets, fragmented writes, hard
// daemon kills, graceful drains with a server handover, and overload. The
// invariant under every scenario is the same: on eventual success the
// profile is byte-identical to the offline pipeline (no event lost or
// double-counted past the last acknowledged batch), and no goroutines
// outlive their server.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aprof/internal/faultio"
	"aprof/internal/obs"
	"aprof/internal/server"
	"aprof/internal/server/client"
)

// chaosDialer dials addr and wraps each connection in a ChaosConn whose
// reset budget grows with the attempt number: early connections die
// mid-frame, later ones live longer, so the sweep is guaranteed to make
// progress while still exercising many distinct tear points.
func chaosDialer(addr func() string, seed int64, step int64) func(context.Context) (net.Conn, error) {
	var attempts atomic.Int64
	return func(ctx context.Context) (net.Conn, error) {
		n := attempts.Add(1)
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", addr())
		if err != nil {
			return nil, err
		}
		return faultio.WrapConn(conn, faultio.ConnConfig{
			Seed:            seed + n,
			MaxWriteChunk:   512,
			ResetAfterBytes: step * n,
		}), nil
	}
}

// TestChaosReconnectSweep: across seeds, a client whose every connection
// is fragmented and reset mid-stream must still finish the upload through
// checkpointed resumes, byte-identical to the offline pipeline.
func TestChaosReconnectSweep(t *testing.T) {
	enc := testTrace(t, 20, 1200)
	want := offlineProfile(t, enc)
	before := runtime.NumGoroutine()

	for seed := int64(0); seed < 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			s := startServer(t, server.Options{
				CheckpointDir:   dir,
				CheckpointEvery: 8,
				BatchSize:       16,
			})
			addr := s.Addr()
			res, err := client.Run(context.Background(), client.Options{
				SessionID:   "chaos",
				Open:        opener(enc),
				Dial:        chaosDialer(func() string { return addr }, seed*100, int64(len(enc))/6),
				MaxAttempts: 10,
				Backoff:     time.Millisecond,
				Jitter:      0.5,
				Seed:        seed,
			})
			if err != nil {
				t.Fatalf("chaos upload failed: %v (result %+v)", err, res)
			}
			if res.Reconnects == 0 {
				t.Fatalf("chaos schedule never tore a connection: %+v", res)
			}
			got, _ := s.Result("chaos")
			if got == nil || !bytes.Equal(got.Profile, want) {
				t.Fatal("profile after chaos resumes differs from offline pipeline")
			}
			s.Abort()
			s.Wait()
		})
	}
	waitNoLeak(t, before)
}

// TestKillResumeSweep: hard-kill the daemon (the in-process SIGKILL) at a
// sweep of batch positions mid-session; a restarted daemon over the same
// checkpoint directory must finish the session byte-identically.
func TestKillResumeSweep(t *testing.T) {
	enc := testTrace(t, 21, 1200)
	want := offlineProfile(t, enc)
	before := runtime.NumGoroutine()

	for _, killAt := range []int{1, 2, 5, 9} {
		killAt := killAt
		t.Run(fmt.Sprintf("killAt=%d", killAt), func(t *testing.T) {
			dir := t.TempDir()
			var victim atomic.Pointer[server.Server]
			s1 := startServer(t, server.Options{
				CheckpointDir:   dir,
				CheckpointEvery: 8,
				BatchSize:       16,
				OnSessionBatch: func(id string, batch int, delivered uint64) {
					if batch == killAt {
						victim.Load().Abort()
					}
				},
			})
			victim.Store(s1)

			_, err := client.Run(context.Background(), client.Options{
				Addr: s1.Addr(), SessionID: "victim", Open: opener(enc),
				MaxAttempts: 1, Backoff: time.Millisecond,
			})
			if err == nil {
				t.Fatal("session survived a daemon kill")
			}
			s1.Wait()

			s2 := startServer(t, server.Options{CheckpointDir: dir, CheckpointEvery: 8, BatchSize: 16})
			res, err := client.Run(context.Background(), client.Options{
				Addr: s2.Addr(), SessionID: "victim", Open: opener(enc),
			})
			if err != nil {
				t.Fatalf("resume after kill: %v", err)
			}
			if res.ResumedFrom == 0 {
				t.Fatal("restarted daemon found no checkpoint to resume")
			}
			got, _ := s2.Result("victim")
			if got == nil || !bytes.Equal(got.Profile, want) {
				t.Fatal("profile after kill+resume differs from offline pipeline")
			}
			s2.Abort()
			s2.Wait()
		})
	}
	waitNoLeak(t, before)
}

// TestGracefulDrainHandsOver: one client.Run call spans a SIGTERM-style
// drain — the first daemon checkpoints the in-flight session and goes
// away, a replacement comes up on a new port, and the client's reconnect
// loop finds it and resumes to a byte-identical profile.
func TestGracefulDrainHandsOver(t *testing.T) {
	enc := testTrace(t, 22, 1500)
	want := offlineProfile(t, enc)
	dir := t.TempDir()

	var addr atomic.Value // string: where the client should dial now
	drainOnce := sync.Once{}
	handover := make(chan *server.Server, 1)

	var s1 *server.Server
	s1 = startServer(t, server.Options{
		CheckpointDir:   dir,
		CheckpointEvery: 8,
		BatchSize:       16,
		OnSessionBatch: func(id string, batch int, delivered uint64) {
			if batch == 3 {
				drainOnce.Do(func() {
					go func() {
						ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
						defer cancel()
						if err := s1.Shutdown(ctx); err != nil {
							t.Errorf("drain did not finish in time: %v", err)
						}
						s2 := startServer(t, server.Options{CheckpointDir: dir, CheckpointEvery: 8, BatchSize: 16})
						addr.Store(s2.Addr())
						handover <- s2
					}()
				})
			}
		},
	})
	addr.Store(s1.Addr())

	res, err := client.Run(context.Background(), client.Options{
		SessionID: "handover",
		Open:      opener(enc),
		Dial: func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr.Load().(string))
		},
		MaxAttempts: 10,
		Backoff:     5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("upload across drain failed: %v (result %+v)", err, res)
	}
	if res.Reconnects == 0 || res.ResumedFrom == 0 {
		t.Fatalf("drain did not force a checkpointed reconnect: %+v", res)
	}
	s2 := <-handover
	got, _ := s2.Result("handover")
	if got == nil || !bytes.Equal(got.Profile, want) {
		t.Fatal("profile after drain handover differs from offline pipeline")
	}
}

// TestOverloadShedsWithoutDeadlock: more concurrent clients than session
// slots. Shed clients back off and retry; every upload must eventually
// complete (bounded by the test timeout — a deadlock fails loudly) and
// match the offline pipeline, and the result stage's histograms must count
// one encode and one repository save per completed session.
func TestOverloadShedsWithoutDeadlock(t *testing.T) {
	enc := testTrace(t, 23, 800)
	want := offlineProfile(t, enc)
	reg := obs.NewRegistry()
	store := openStore(t, t.TempDir())
	t.Cleanup(func() { store.Close() }) // after the server's own cleanup
	s := startServer(t, server.Options{MaxSessions: 2, Obs: reg, Store: store})

	const clients = 6
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		i := i
		go func() {
			_, err := client.Run(context.Background(), client.Options{
				Addr:        s.Addr(),
				SessionID:   fmt.Sprintf("load-%d", i),
				Open:        opener(enc),
				MaxAttempts: 100,
				Backoff:     2 * time.Millisecond,
				Jitter:      0.5,
				Seed:        int64(i),
			})
			errs <- err
		}()
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("client under overload: %v", err)
		}
	}
	for i := 0; i < clients; i++ {
		got, _ := s.Result(fmt.Sprintf("load-%d", i))
		if got == nil || !bytes.Equal(got.Profile, want) {
			t.Fatalf("client load-%d profile differs from offline pipeline", i)
		}
	}
	sc := reg.Scope(server.ObsScopeServer)
	if sc.Counter("sessions_completed").Load() != clients {
		t.Error("completed-session count does not match the client count")
	}
	// The result stage is timed once per completed session: the profile
	// encode and the repository save.
	for _, h := range []string{"result_encode_us", "result_save_us"} {
		if n := sc.Histogram(h).Count(); n != clients {
			t.Errorf("%s observed %d times, want %d", h, n, clients)
		}
	}
}

// TestDrainWithStalledClient: Shutdown must not hang on a session whose
// client is blocked mid-stream sending nothing — the read-deadline nudge
// turns the blocked read into a prompt, checkpointed exit.
func TestDrainWithStalledClient(t *testing.T) {
	enc := testTrace(t, 24, 1200)
	dir := t.TempDir()
	s := startServer(t, server.Options{CheckpointDir: dir, CheckpointEvery: 8, BatchSize: 16})

	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write(server.AppendHandshake(nil, "stalled", false))
	// Send most of the trace, then stall forever mid-frame, giving the
	// session a moment to profile what arrived.
	conn.Write(enc[:len(enc)*2/3])
	time.Sleep(100 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain hung on a stalled client: %v after %v", err, time.Since(start))
	}
}

// TestDrainRefusesNewSessions: once draining, new handshakes are answered
// busy, not accepted into a dying server.
func TestDrainRefusesNewSessions(t *testing.T) {
	enc := testTrace(t, 25, 600)
	s := startServer(t, server.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// The listener is closed, so dials are refused outright; a client that
	// raced a connection in before the close would get busy. Either way the
	// error is transient and the client gives up after its budget.
	_, err := client.Run(context.Background(), client.Options{
		Addr: s.Addr(), SessionID: "late", Open: opener(enc),
		MaxAttempts: 2, Backoff: time.Millisecond,
	})
	if err == nil {
		t.Fatal("session accepted by a drained server")
	}
	if strings.Contains(err.Error(), "panic") {
		t.Fatalf("unexpected: %v", err)
	}
}
