package client_test

// Resource-leak audit for every client failover path. Each scenario runs
// the full client loop through one failure shape — connect refusal,
// mid-stream reset, busy-shed exhaustion, and a cluster drain handover —
// and then requires the process back at its goroutine and file-descriptor
// baselines. The paths that give up (refusal, shed) matter as much as the
// ones that succeed: an abandoned attempt that forgets its sender
// goroutine or its socket turns a retry loop into a slow leak.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aprof/internal/core"
	"aprof/internal/faultio"
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

// offlineProfile runs the offline pipeline over enc.
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

// opener adapts trace bytes to the client's restartable source.
func opener(enc []byte) func() (io.ReadCloser, error) {
	return func() (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(enc)), nil
	}
}

// startNode starts one daemon with test defaults.
func startNode(t *testing.T, opts server.Options) *server.Server {
	t.Helper()
	if opts.Config.CounterLimit == 0 {
		opts.Config = core.DefaultConfig()
	}
	if opts.BatchSize == 0 {
		opts.BatchSize = 16
	}
	if opts.CheckpointEvery == 0 {
		opts.CheckpointEvery = 4
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

// fdCount counts this process's open file descriptors via /proc. Sockets
// in TIME_WAIT are kernel state, not descriptors, so a clean close settles
// the count immediately.
func fdCount(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd on this platform: %v", err)
	}
	return len(ents)
}

// audit runs fn between baseline captures and polls both counts back down.
// The poll absorbs the teardown latency of server-side session goroutines;
// what must not remain is anything owned by the client.
func audit(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	goroutines := runtime.NumGoroutine()
	fds := fdCount(t)

	fn(t)

	deadline := time.Now().Add(2 * time.Second)
	for {
		g, f := runtime.NumGoroutine(), fdCount(t)
		if g <= goroutines && f <= fds {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("leak: goroutines %d -> %d, fds %d -> %d", goroutines, g, fds, f)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLeakAuditConnectFail: every node refuses the connection; the dialer
// walks the whole ring per attempt and the run fails — with nothing left
// behind for any of the failed dials.
func TestLeakAuditConnectFail(t *testing.T) {
	enc := testTrace(t, 60, 300)
	// Grab real loopback ports and close them so the addresses refuse.
	dead := make([]string, 2)
	for i := range dead {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		dead[i] = l.Addr().String()
		l.Close()
	}
	audit(t, func(t *testing.T) {
		cd, err := client.NewClusterDialer(client.ClusterOptions{
			Nodes: dead, SessionID: "nowhere",
		})
		if err != nil {
			t.Fatal(err)
		}
		_, err = client.Run(context.Background(), client.Options{
			SessionID: "nowhere", Open: opener(enc), Dialer: cd,
			MaxAttempts: 2, Backoff: time.Millisecond,
		})
		if err == nil {
			t.Fatal("run against refused addresses succeeded")
		}
	})
}

// TestLeakAuditMidStreamReset: connections die mid-frame until the resend
// protocol pushes the session through; every torn attempt's sender
// goroutine and socket must be reclaimed along the way.
func TestLeakAuditMidStreamReset(t *testing.T) {
	enc := testTrace(t, 61, 700)
	want := offlineProfile(t, enc)
	s := startNode(t, server.Options{CheckpointDir: t.TempDir()})

	audit(t, func(t *testing.T) {
		var attempt int64
		res, err := client.Run(context.Background(), client.Options{
			SessionID: "torn", Open: opener(enc),
			Dial: func(ctx context.Context) (net.Conn, error) {
				attempt++
				var d net.Dialer
				conn, err := d.DialContext(ctx, "tcp", s.Addr())
				if err != nil {
					return nil, err
				}
				return faultio.WrapConn(conn, faultio.ConnConfig{
					Seed:            attempt,
					MaxWriteChunk:   256,
					ResetAfterBytes: int64(len(enc)) / 4 * attempt,
				}), nil
			},
			MaxAttempts: 10, Backoff: time.Millisecond,
		})
		if err != nil {
			t.Fatalf("upload through resets failed: %v", err)
		}
		if res.Reconnects == 0 {
			t.Fatal("reset schedule never tore a connection")
		}
		got, _ := s.Result("torn")
		if got == nil || !bytes.Equal(got.Profile, want) {
			t.Fatal("profile differs from offline pipeline")
		}
	})
}

// TestLeakAuditBusyShedExhaustion: the server sheds every attempt until
// the busy budget runs out. Shed attempts never get past the handshake —
// their sockets and the never-started senders must not accumulate.
func TestLeakAuditBusyShedExhaustion(t *testing.T) {
	enc := testTrace(t, 62, 500)
	gate := make(chan struct{})
	defer close(gate)
	// The audit baseline is taken once the holder is parked inside its
	// first batch: by then its pipeline goroutines exist, so they cannot
	// show up as growth during the audit.
	parked := make(chan struct{})
	var once sync.Once
	s := startNode(t, server.Options{
		MaxSessions: 1,
		OnSessionBatch: func(id string, batch int, delivered uint64) {
			once.Do(func() {
				close(parked)
				<-gate
			})
		},
	})

	holderDone := make(chan error, 1)
	go func() {
		_, err := client.Run(context.Background(), client.Options{
			Addr: s.Addr(), SessionID: "holder", Open: opener(enc),
		})
		holderDone <- err
	}()
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("holder never reached its first batch")
	}

	audit(t, func(t *testing.T) {
		_, err := client.Run(context.Background(), client.Options{
			Addr: s.Addr(), SessionID: "shed", Open: opener(enc),
			MaxAttempts: 2, MaxBusyAttempts: 3, Backoff: time.Millisecond,
		})
		if err == nil || !errors.Is(err, client.ErrBusy) {
			t.Fatalf("err = %v, want wrapped ErrBusy after budget exhaustion", err)
		}
	})

	gate <- struct{}{}
	if err := <-holderDone; err != nil {
		t.Fatalf("holder failed: %v", err)
	}
}

// TestLeakAuditClusterDrainHandover: the serving node drains mid-session;
// the cluster dialer carries the same Run call to the other node, which
// resumes from the shared checkpoint directory. One client call, two
// servers, zero residue.
func TestLeakAuditClusterDrainHandover(t *testing.T) {
	enc := testTrace(t, 63, 900)
	want := offlineProfile(t, enc)
	dir := t.TempDir()

	// Whichever node serves the session drains itself at batch 3 — the
	// ring, not the test, decides which one that is.
	var drainOnce sync.Once
	var drainStarted atomic.Bool
	drained := make(chan struct{})
	nodes := make([]*server.Server, 2)
	addrs := make([]string, 2)
	for i := range nodes {
		self := new(atomic.Pointer[server.Server])
		s := startNode(t, server.Options{
			CheckpointDir: dir,
			OnSessionBatch: func(id string, batch int, delivered uint64) {
				if batch == 3 {
					drainOnce.Do(func() {
						drainStarted.Store(true)
						go func() {
							ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
							defer cancel()
							if err := self.Load().Shutdown(ctx); err != nil {
								t.Errorf("drain did not finish: %v", err)
							}
							close(drained)
						}()
					})
				}
			},
		})
		self.Store(s)
		nodes[i], addrs[i] = s, s.Addr()
	}

	audit(t, func(t *testing.T) {
		cd, err := client.NewClusterDialer(client.ClusterOptions{
			Nodes:     addrs,
			SessionID: "drainee",
			DialNode: func(ctx context.Context, addr string) (net.Conn, error) {
				// Once the drain kicked the session off, wait it out so the
				// redial deterministically meets a fully-drained node (and
				// its flushed checkpoint) instead of racing the shutdown.
				if drainStarted.Load() {
					<-drained
				}
				var d net.Dialer
				return d.DialContext(ctx, "tcp", addr)
			},
			Logf: t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := client.Run(context.Background(), client.Options{
			SessionID: "drainee", Open: opener(enc), Dialer: cd,
			MaxAttempts: 8, Backoff: 2 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("upload across drain failed: %v (result %+v)", err, res)
		}
		if res.Reconnects == 0 {
			t.Fatalf("drain never forced a reconnect: %+v", res)
		}
		var got *server.SessionResult
		for _, n := range nodes {
			if r, ok := n.Result("drainee"); ok {
				got = r
			}
		}
		if got == nil || !bytes.Equal(got.Profile, want) {
			t.Fatal("profile after drain handover differs from offline pipeline")
		}
	})
	<-drained
}
