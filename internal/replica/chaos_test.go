package replica_test

// The cluster chaos suite. Every node here has strictly PRIVATE state, as
// aprofd -store -replicate-peers lays it out: its own profile repository
// and, inside it, its own checkpoint store, which holds the checkpoints of
// the sessions the node serves and the replicas it keeps for its peers.
// Durability comes only from the APRR replication ring and store
// anti-entropy. The invariants proved:
//
//   - Kill the serving node at every batch index AND wipe its disk: the
//     session fails over, resumes from the replicated checkpoint, and the
//     final profile is byte-identical to the offline pipeline. A restarted
//     owner resumes from its own copy; an unusable copy is dropped.
//   - Routing holds under link chaos, half-open links, busy-shed overload
//     and health-based ejection of a dead owner, and the fan-out view
//     serves a migrated session from any survivor.
//   - Replication links that fragment and reset mid-frame delay but never
//     corrupt: torn pushes are CRC-rejected, redials recover, output stays
//     byte-identical.
//   - Store sync interrupted by a partition leaves both repositories
//     intact; the re-sync converges and a converged re-re-sync is a no-op.
//   - None of the replication paths — push to a dead peer, recovery
//     against dead peers, handler churn, partitioned sync — leak
//     goroutines or file descriptors.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aprof/internal/cluster"
	"aprof/internal/core"
	"aprof/internal/faultio"
	"aprof/internal/obs"
	"aprof/internal/profio"
	"aprof/internal/replica"
	"aprof/internal/repo"
	"aprof/internal/repo/backend"
	"aprof/internal/server"
	"aprof/internal/server/client"
	"aprof/internal/trace"
)

func testTrace(t *testing.T, seed int64, ops int) []byte {
	t.Helper()
	tr := trace.Random(trace.RandomConfig{Seed: seed, Ops: ops, Threads: 3})
	var buf bytes.Buffer
	if err := trace.WriteBinary2(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

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

func opener(enc []byte) func() (io.ReadCloser, error) {
	return func() (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(enc)), nil
	}
}

// rnode is one fully-private cluster member: no directory is shared with
// any other node.
type rnode struct {
	addr string
	root string
	srv  *server.Server
	node *replica.Node
	rep  *repo.Repository
	obs  *obs.Registry
}

type rcluster struct {
	nodes []*rnode
	addrs []string
	tweak func(i int, so *server.Options, ro *replica.Options)
}

// startReplicaCluster stands up n replicated aprofd nodes, each over its
// own temp root, serving APRD and APRR on one port. tweak may adjust
// either option set before construction.
func startReplicaCluster(t *testing.T, n int, tweak func(i int, so *server.Options, ro *replica.Options)) *rcluster {
	t.Helper()
	c := &rcluster{tweak: tweak}
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		c.addrs = append(c.addrs, ln.Addr().String())
	}
	for i := 0; i < n; i++ {
		rn := &rnode{addr: c.addrs[i], root: t.TempDir()}
		c.nodes = append(c.nodes, rn)
		c.start(t, i, lns[i])
		t.Cleanup(rn.stop)
	}
	return c
}

// start builds node i over its root the way `aprofd -store <root>/store
// -replicate-peers` builds a member — the profile store in store/, the
// checkpoint store in store/replica, no checkpoint dir — and serves it on
// ln.
func (c *rcluster) start(t *testing.T, i int, ln net.Listener) {
	t.Helper()
	rn := c.nodes[i]
	be, err := backend.OpenLocal(filepath.Join(rn.root, "store"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := repo.OpenOrInit(be, repo.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ro := replica.Options{
		Self:    rn.addr,
		Peers:   append([]string(nil), c.addrs...),
		Dir:     filepath.Join(rn.root, "store", "replica"),
		Backend: be,
		Obs:     reg,
		Logf:    t.Logf,
	}
	so := server.Options{
		Store:           rep,
		Config:          core.DefaultConfig(),
		BatchSize:       16,
		CheckpointEvery: 4,
		Obs:             reg,
		Logf:            t.Logf,
	}
	if c.tweak != nil {
		c.tweak(i, &so, &ro)
	}
	node, err := replica.NewNode(ro)
	if err != nil {
		t.Fatal(err)
	}
	so.Replica = node
	srv := server.New(so)
	srv.Serve(ln)
	rn.srv, rn.node, rn.rep, rn.obs = srv, node, rep, reg
}

// stop is a process death that keeps the disk: server aborted, replica
// node closed, store closed.
func (n *rnode) stop() {
	n.srv.Abort()
	n.srv.Wait()
	n.node.Close()
	n.rep.Close() // wiped victims error here; that is fine
}

// kill is the machine-death stand-in: the node stops and its entire disk
// root is wiped. Nothing of this node survives.
func (c *rcluster) kill(t *testing.T, i int) {
	t.Helper()
	c.nodes[i].stop()
	if err := os.RemoveAll(c.nodes[i].root); err != nil {
		t.Fatalf("wiping node %d: %v", i, err)
	}
}

// restart brings a stopped node back on its address over its root.
func (c *rcluster) restart(t *testing.T, i int) {
	t.Helper()
	ln, err := net.Listen("tcp", c.nodes[i].addr)
	if err != nil {
		t.Fatal(err)
	}
	c.start(t, i, ln)
}

// index maps a member address back to its node index.
func (c *rcluster) index(t *testing.T, addr string) int {
	t.Helper()
	for i, a := range c.addrs {
		if a == addr {
			return i
		}
	}
	t.Fatalf("%s is not a member", addr)
	return -1
}

// result finds a completed session's profile on any node not in skip.
func (c *rcluster) result(id string, skip map[int]bool) []byte {
	for i, n := range c.nodes {
		if skip[i] {
			continue
		}
		if r, ok := n.srv.Result(id); ok && r != nil {
			return r.Profile
		}
	}
	return nil
}

// syncAll runs store anti-entropy between every ordered pair of surviving
// nodes (dead indexes listed in skip), pulling over the real APRR port.
func (c *rcluster) syncAll(t *testing.T, skip map[int]bool) {
	t.Helper()
	for i, dst := range c.nodes {
		if skip[i] {
			continue
		}
		for j, src := range c.nodes {
			if i == j || skip[j] {
				continue
			}
			peer := backend.NewPeer(src.addr, backend.PeerOptions{})
			if _, err := dst.rep.Sync(peer); err != nil {
				t.Fatalf("sync node %d <- node %d: %v", i, j, err)
			}
			peer.Close()
		}
	}
}

// sessionBatches counts the batches one clean upload spans under the test
// batch geometry — the sweep range for kill-at-every-batch.
func sessionBatches(t *testing.T, enc []byte) int {
	t.Helper()
	var maxBatch atomic.Int64
	s := server.New(server.Options{
		Config:          core.DefaultConfig(),
		BatchSize:       16,
		CheckpointEvery: 4,
		Logf:            t.Logf,
		OnSessionBatch: func(id string, batch int, delivered uint64) {
			for {
				cur := maxBatch.Load()
				if int64(batch) <= cur || maxBatch.CompareAndSwap(cur, int64(batch)) {
					return
				}
			}
		},
	})
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() { s.Abort(); s.Wait() }()
	if _, err := client.Run(context.Background(), client.Options{
		Addr: s.Addr(), SessionID: "count", Open: opener(enc),
	}); err != nil {
		t.Fatal(err)
	}
	if maxBatch.Load() == 0 {
		t.Fatal("clean pass saw no batches")
	}
	return int(maxBatch.Load())
}

// TestReplicaKillAtEveryBatchNoSharedDir is the tentpole proof. Three
// nodes, nothing shared. The node serving the session is hard-killed at
// batch index k and its disk wiped — for every k the session has. The
// client must fail over, resume from the replica set's checkpoint (for
// any kill past the first boundary), and finish byte-identical to the
// offline pipeline. Afterwards store anti-entropy must spread the profile
// to every survivor, whose repositories must pass a full integrity check.
func TestReplicaKillAtEveryBatchNoSharedDir(t *testing.T) {
	enc := testTrace(t, 50, 480)
	want := offlineProfile(t, enc)
	batches := sessionBatches(t, enc)
	const ckptEvery = 4
	t.Logf("session spans %d batches; killing+wiping at every index", batches)
	before := runtime.NumGoroutine()

	for killAt := 1; killAt <= batches; killAt++ {
		killAt := killAt
		t.Run(fmt.Sprintf("killAt=%d", killAt), func(t *testing.T) {
			var killed atomic.Bool
			var victimIdx atomic.Int64
			victimIdx.Store(-1)
			var wipeOnce sync.Once

			var c *rcluster
			c = startReplicaCluster(t, 3, func(i int, so *server.Options, ro *replica.Options) {
				so.OnSessionBatch = func(id string, batch int, delivered uint64) {
					if batch == killAt && killed.CompareAndSwap(false, true) {
						victimIdx.Store(int64(i))
						c.nodes[i].srv.Abort()
					}
				}
			})

			// Before any redial, finish the kill: wait the victim out, then
			// wipe its entire disk root. Whatever the failover node resumes
			// from, it cannot have come from the victim's machine.
			cd := failoverDialer(t, c, "victim", func() {
				if v := victimIdx.Load(); v >= 0 {
					wipeOnce.Do(func() { c.kill(t, int(v)) })
				}
			})
			res, err := client.Run(context.Background(), client.Options{
				SessionID:   "victim",
				Open:        opener(enc),
				Dialer:      cd,
				MaxAttempts: 10,
				Backoff:     2 * time.Millisecond,
			})
			if err != nil {
				t.Fatalf("upload across kill+wipe failed: %v (result %+v)", err, res)
			}
			if !killed.Load() {
				t.Fatal("kill hook never fired")
			}
			if res.Reconnects == 0 {
				t.Fatalf("node kill did not force a reconnect: %+v", res)
			}
			// Before the first checkpoint boundary nothing has been acked or
			// replicated, so a fresh start is the correct (and only) outcome;
			// past it, the replica set must produce a resume.
			if killAt >= ckptEvery && res.ResumedFrom == 0 {
				t.Fatalf("failover restarted from scratch instead of resuming from the replica set: %+v", res)
			}

			dead := int(victimIdx.Load())
			skip := map[int]bool{dead: true}
			var got []byte
			for i, n := range c.nodes {
				if skip[i] {
					continue
				}
				if r, ok := n.srv.Result("victim"); ok && r != nil {
					got = r.Profile
				}
			}
			if got == nil {
				t.Fatal("no surviving node holds the session result")
			}
			if !bytes.Equal(got, want) {
				t.Fatal("profile after kill+wipe failover differs from offline pipeline")
			}

			// Anti-entropy: every survivor's private store must converge on
			// the profile and pass a full integrity check.
			c.syncAll(t, skip)
			for i, n := range c.nodes {
				if skip[i] {
					continue
				}
				data, err := n.rep.GetSession("victim")
				if err != nil {
					t.Fatalf("node %d store after sync: %v", i, err)
				}
				if !bytes.Equal(data, want) {
					t.Fatalf("node %d synced store serves different bytes", i)
				}
				if rep := n.rep.Check(); !rep.OK() {
					t.Fatalf("node %d store check failed after sync: %v", i, rep.Errors)
				}
			}
		})
	}
	waitNoLeak(t, before)
}

// TestReplicaTornPushSweep fragments and mid-frame-resets every
// replication link (client links stay clean). Torn pushes must be
// CRC-rejected and retried, never stored, and the session must still
// complete byte-identical — replication chaos can cost time, not truth.
func TestReplicaTornPushSweep(t *testing.T) {
	enc := testTrace(t, 51, 480)
	want := offlineProfile(t, enc)

	for seed := int64(0); seed < 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c := startReplicaCluster(t, 3, func(i int, so *server.Options, ro *replica.Options) {
				ro.Dial = faultio.WrapDial(func(addr string) (net.Conn, error) {
					return net.DialTimeout("tcp", addr, 2*time.Second)
				}, faultio.ConnConfig{
					Seed:          seed*1000 + int64(i),
					MaxWriteChunk: 128,
					// A link's budget holds the largest push (the final
					// checkpoint, ~2 KB) with its confirmation, so a
					// redialed link always delivers the retry, but not the
					// ~20 KB one link carries over the session: every seed
					// tears a link mid-push.
					ResetAfterBytes: 4 << 10,
				})
			})

			cd, err := client.NewClusterDialer(client.ClusterOptions{
				Nodes:     c.addrs,
				SessionID: "torn",
				Logf:      t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := client.Run(context.Background(), client.Options{
				SessionID:   "torn",
				Open:        opener(enc),
				Dialer:      cd,
				MaxAttempts: 12,
				Backoff:     2 * time.Millisecond,
			})
			if err != nil {
				t.Fatalf("upload with torn replication links failed: %v (result %+v)", err, res)
			}

			var got []byte
			var redials, pushed uint64
			for _, n := range c.nodes {
				if r, ok := n.srv.Result("torn"); ok && r != nil {
					got = r.Profile
				}
				snap := n.obs.Snapshot().Scope(replica.ObsScopeReplica)
				redials += snap.Counter("peer_redials")
				pushed += snap.Counter("checkpoints_pushed")
			}
			if got == nil || !bytes.Equal(got, want) {
				t.Fatal("profile under torn replication links differs from offline pipeline")
			}
			if pushed == 0 {
				t.Fatal("no checkpoint was ever replicated — the chaos path was not exercised")
			}
			if redials == 0 {
				t.Fatalf("no replication link tore (budget unspent, %d pushes): the torn-push path was not exercised", pushed)
			}
			t.Logf("%d pushes, %d redials", pushed, redials)
			// Retries and failed pushes included, every replica push is one
			// replicate_us observation, and every push rides on an append
			// to a checkpoint store.
			var appends, replicates, confirmed, failed uint64
			for _, n := range c.nodes {
				appends += histCount(n.obs, replica.ObsScopeReplica, "checkpoint_append_us")
				replicates += histCount(n.obs, server.ObsScopeServer, "replicate_us")
				snap := n.obs.Snapshot().Scope(server.ObsScopeServer)
				confirmed += snap.Counter("replica_checkpoints_pushed")
				failed += snap.Counter("replica_pushes_failed")
			}
			if replicates != confirmed+failed || appends < replicates || confirmed == 0 {
				t.Fatalf("replicate_us observed %d times for %d confirmed + %d failed pushes, checkpoint_append_us %d times",
					replicates, confirmed, failed, appends)
			}
		})
	}
}

// TestBoundaryStageHistograms: a clean replicated session observes each
// boundary stage once per checkpoint boundary — checkpoint_append_us (an
// append and fsync to a checkpoint store: the owner's own copy on the
// serving node, the received copy on its peer) and replicate_us (the
// replication until MinConfirms) — as many times as it sends boundary acks
// and confirms pushes.
func TestBoundaryStageHistograms(t *testing.T) {
	enc := testTrace(t, 52, 480)
	want := offlineProfile(t, enc)
	boundaries := uint64(sessionBatches(t, enc) / 4)
	if boundaries == 0 {
		t.Fatal("session crosses no checkpoint boundary: test is vacuous")
	}
	c := startReplicaCluster(t, 2, nil)
	cd, err := client.NewClusterDialer(client.ClusterOptions{Nodes: c.addrs, SessionID: "stages", Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	res, err := client.Run(context.Background(), client.Options{SessionID: "stages", Open: opener(enc), Dialer: cd})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reconnects != 0 {
		t.Fatalf("clean session reconnected: %+v", res)
	}
	var got []byte
	var replicates, acks, confirmed uint64
	counts := map[string]uint64{}
	for i, n := range c.nodes {
		if r, ok := n.srv.Result("stages"); ok && r != nil {
			got = r.Profile
		}
		counts[fmt.Sprintf("node %d checkpoint_append_us observations", i)] = histCount(n.obs, replica.ObsScopeReplica, "checkpoint_append_us")
		replicates += histCount(n.obs, server.ObsScopeServer, "replicate_us")
		snap := n.obs.Snapshot().Scope(server.ObsScopeServer)
		acks += snap.Counter("acks_sent")
		confirmed += snap.Counter("replica_checkpoints_pushed")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("profile differs from the offline pipeline")
	}
	counts["replicate_us observations"] = replicates
	counts["boundary acks"] = acks
	counts["confirmed pushes"] = confirmed
	for name, n := range counts {
		if n != boundaries {
			t.Errorf("%s = %d, want one per boundary (%d)", name, n, boundaries)
		}
	}
}

// histCount returns a histogram's observation count, 0 when it was never
// observed.
func histCount(reg *obs.Registry, scope, name string) uint64 {
	if s := reg.Snapshot().Scope(scope); s != nil {
		if h := s.Histogram(name); h != nil {
			return h.Count
		}
	}
	return 0
}

// TestReplicaSyncPartitionRecovery interrupts a store sync mid-pull with
// an injected partition. The partial sync must leave the destination
// repository fully intact (check-clean), the re-sync must converge, and a
// third sync must be a pure no-op — anti-entropy is idempotent.
func TestReplicaSyncPartitionRecovery(t *testing.T) {
	// Source repository with enough sessions that a pull spans several
	// pack transfers.
	beA, err := backend.OpenLocal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	repA, err := repo.OpenOrInit(beA, repo.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer repA.Close()
	var profiles [][]byte
	for i := 0; i < 6; i++ {
		p := offlineProfile(t, testTrace(t, 60+int64(i), 200+40*i))
		profiles = append(profiles, p)
		if err := repA.SaveProfile(fmt.Sprintf("sess-%d", i), p); err != nil {
			t.Fatal(err)
		}
	}

	// Serve it over APRR.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	node, err := replica.NewNode(replica.Options{
		Self:     ln.Addr().String(),
		Peers:    []string{ln.Addr().String()},
		Replicas: 1,
		Backend:  beA,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				node.ServeConn(conn, bufio.NewReader(conn))
			}()
		}
	}()
	defer func() { ln.Close(); node.Close(); wg.Wait() }()

	beB, err := backend.OpenLocal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	repB, err := repo.OpenOrInit(beB, repo.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer repB.Close()

	// Partitioned first pass: the link dies a few KB in, over and over.
	torn := backend.NewPeer(ln.Addr().String(), backend.PeerOptions{
		Dial: faultio.WrapDial(func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 2*time.Second)
		}, faultio.ConnConfig{Seed: 7, MaxWriteChunk: 64, ResetAfterBytes: 4 << 10}),
	})
	if _, err := repB.Sync(torn); err != nil {
		t.Logf("partitioned sync returned error (acceptable): %v", err)
	}
	torn.Close()
	if rep := repB.Check(); !rep.OK() {
		t.Fatalf("destination repo damaged by partitioned sync: %v", rep.Errors)
	}

	// Healed second pass must converge fully.
	peer := backend.NewPeer(ln.Addr().String(), backend.PeerOptions{})
	defer peer.Close()
	stats, err := repB.Sync(peer)
	if err != nil {
		t.Fatalf("healed sync: %v", err)
	}
	t.Logf("healed sync: %s", stats.String())
	for i, want := range profiles {
		got, err := repB.GetSession(fmt.Sprintf("sess-%d", i))
		if err != nil {
			t.Fatalf("sess-%d after sync: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("sess-%d bytes differ after sync", i)
		}
	}
	if rep := repB.Check(); !rep.OK() {
		t.Fatalf("destination repo check after healed sync: %v", rep.Errors)
	}

	// Converged third pass is a no-op: nothing pulled, no root written.
	again, err := repB.Sync(peer)
	if err != nil {
		t.Fatalf("idempotent sync: %v", err)
	}
	if again.PacksPulled != 0 || again.RootWritten {
		t.Fatalf("sync of a converged pair did work: %s", again.String())
	}
}

// TestReplicaLeakAudit drives every replication path that touches the
// network — pushes to dead peers, recovery against dead peers, handler
// churn, partitioned syncs — and requires goroutine and FD counts to
// settle back to baseline.
func TestReplicaLeakAudit(t *testing.T) {
	audit(t, func(t *testing.T) {
		// Push and recover against a cluster whose peers are all dead.
		dead := make([]string, 2)
		for i := range dead {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			dead[i] = l.Addr().String()
			l.Close()
		}
		n, err := replica.NewNode(replica.Options{
			Self:  dead[0],
			Peers: dead,
			Logf:  t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Replicate("leak", 1, []byte("x")); err == nil {
			t.Fatal("push to dead peers confirmed")
		}
		// A failed push still leaves this node's own copy of "leak", so
		// recovery is audited on a session that was never pushed.
		if _, _, err := n.Recover("never-pushed"); err == nil {
			t.Fatal("recover from dead peers succeeded")
		}
		n.Drop("leak")
		n.Close()
	})

	audit(t, func(t *testing.T) {
		// Handler churn: a served node hit by many short-lived peers, some
		// of which cut the conn mid-request.
		c := startReplicaCluster(t, 2, nil)
		for i := 0; i < 20; i++ {
			conn, err := net.Dial("tcp", c.addrs[0])
			if err != nil {
				t.Fatal(err)
			}
			if i%2 == 0 {
				// Half-written handshake, then gone.
				conn.Write([]byte("APR"))
			}
			conn.Close()
		}
		// A real exchange still works afterwards.
		if err := c.nodes[1].node.Replicate("after-churn", 3, []byte("ok")); err != nil {
			t.Fatalf("push after churn: %v", err)
		}
		for _, n := range c.nodes {
			n.srv.Abort()
			n.srv.Wait()
			n.node.Close()
		}
	})

	audit(t, func(t *testing.T) {
		// Partitioned sync against a dead address: dial fails, nothing
		// sticks around.
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := l.Addr().String()
		l.Close()
		be, err := backend.OpenLocal(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		r, err := repo.OpenOrInit(be, repo.Options{})
		if err != nil {
			t.Fatal(err)
		}
		peer := backend.NewPeer(addr, backend.PeerOptions{DialTimeout: 100 * time.Millisecond})
		if _, err := r.Sync(peer); err == nil {
			t.Fatal("sync against a dead peer succeeded")
		}
		peer.Close()
		r.Close()
	})
}

// waitNoLeak polls until the goroutine count returns to its baseline.
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

// fdCount counts this process's open file descriptors via /proc.
func fdCount(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd on this platform: %v", err)
	}
	return len(ents)
}

// audit runs fn between baseline captures and polls both counts back down.
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

// failoverDialer routes a session over the cluster; before every dial it
// runs before (when non-nil), the hook the kill tests use to finish a kill
// before the client redials.
func failoverDialer(t *testing.T, c *rcluster, id string, before func()) *client.ClusterDialer {
	t.Helper()
	cd, err := client.NewClusterDialer(client.ClusterOptions{
		Nodes:     c.addrs,
		SessionID: id,
		DialNode: func(ctx context.Context, addr string) (net.Conn, error) {
			if before != nil {
				before()
			}
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cd
}

// TestReplicaUnusableCheckpointIsDropped: the replica set holds garbage
// for a session at a sequence far past any real checkpoint. The session's
// start discards it as unusable and must also drop it from the replica
// set: left there, it answers every later push as stale — acks would go
// out with no usable copy anywhere — and a failover after the owner's
// disk is lost would find only the garbage and restart from scratch.
func TestReplicaUnusableCheckpointIsDropped(t *testing.T) {
	enc := testTrace(t, 53, 480)
	want := offlineProfile(t, enc)
	const id, killAt = "garbled", 9 // two boundaries acked before the kill

	var killed atomic.Bool
	var victim atomic.Int64
	victim.Store(-1)
	var wipeOnce sync.Once
	var c *rcluster
	c = startReplicaCluster(t, 3, func(i int, so *server.Options, ro *replica.Options) {
		so.OnSessionBatch = func(sid string, batch int, delivered uint64) {
			if batch == killAt && killed.CompareAndSwap(false, true) {
				victim.Store(int64(i))
				c.nodes[i].srv.Abort()
			}
		}
	})
	owner := c.index(t, c.nodes[0].node.ReplicaSet(id)[0])
	if err := c.nodes[owner].node.Replicate(id, 1<<40, []byte("not a checkpoint")); err != nil {
		t.Fatal(err)
	}

	cd := failoverDialer(t, c, id, func() {
		if v := victim.Load(); v >= 0 {
			wipeOnce.Do(func() { c.kill(t, int(v)) })
		}
	})
	res, err := client.Run(context.Background(), client.Options{
		SessionID: id, Open: opener(enc), Dialer: cd,
		MaxAttempts: 10, Backoff: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("upload failed: %v (result %+v)", err, res)
	}
	if v := victim.Load(); v != int64(owner) {
		t.Fatalf("killed node %d, want the owner %d", v, owner)
	}
	if res.ResumedFrom == 0 {
		t.Fatalf("failover restarted from scratch: the acked boundaries left no usable copy (result %+v)", res)
	}
	if got := c.result(id, map[int]bool{owner: true}); !bytes.Equal(got, want) {
		t.Fatal("profile differs from the offline pipeline")
	}
}

// TestReplicaOwnerRestartKeepsOwnCheckpoint: the owner's own checkpoint
// copy lives in its replica store, on its disk, so it survives a restart
// of the owner. The owner dies after acked boundaries with its disk kept,
// its first successor — the other holder of the session's checkpoint —
// dies with its disk wiped, and the owner comes back on the same address
// and directories: the upload must resume from the owner's own copy.
// Nodes are built as aprofd -store -replicate-peers builds them, which
// leaves no scratch checkpoint directory behind either.
func TestReplicaOwnerRestartKeepsOwnCheckpoint(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	enc := testTrace(t, 54, 480)
	want := offlineProfile(t, enc)
	const id, killAt = "restarted", 9 // two boundaries acked before the kill

	var killed atomic.Bool
	var victim atomic.Int64
	victim.Store(-1)
	var c *rcluster
	c = startReplicaCluster(t, 3, func(i int, so *server.Options, ro *replica.Options) {
		so.OnSessionBatch = func(sid string, batch int, delivered uint64) {
			if batch == killAt && killed.CompareAndSwap(false, true) {
				victim.Store(int64(i))
				c.nodes[i].srv.Abort()
			}
		}
	})
	set := c.nodes[0].node.ReplicaSet(id)
	owner, successor := c.index(t, set[0]), c.index(t, set[1])

	var restartOnce sync.Once
	cd := failoverDialer(t, c, id, func() {
		if victim.Load() >= 0 {
			restartOnce.Do(func() {
				c.nodes[owner].stop()
				c.kill(t, successor)
				c.restart(t, owner)
			})
		}
	})
	res, err := client.Run(context.Background(), client.Options{
		SessionID: id, Open: opener(enc), Dialer: cd,
		MaxAttempts: 10, Backoff: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("upload failed: %v (result %+v)", err, res)
	}
	if v := victim.Load(); v != int64(owner) {
		t.Fatalf("killed node %d, want the owner %d", v, owner)
	}
	if res.ResumedFrom == 0 {
		t.Fatalf("restarted owner lost its own checkpoint: the upload restarted from scratch (result %+v)", res)
	}
	if got := c.result(id, map[int]bool{successor: true}); !bytes.Equal(got, want) {
		t.Fatal("profile differs from the offline pipeline")
	}
	leaked, err := filepath.Glob(filepath.Join(tmp, "aprofd-ckpt-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leaked) != 0 {
		t.Fatalf("scratch checkpoint directories left behind: %v", leaked)
	}
}

// TestReplicaReusedSessionIDStartsFresh: Drop is best-effort, so a peer
// that is down when a session completes keeps its checkpoint copy and
// serves it again once restarted. A different trace — another symbol
// table — uploaded next under the same id adopts that copy, which can
// never resume it: the owner must drop it from the replica set on the
// mismatch and fail the attempt transiently, so the retry starts fresh and
// completes byte-identical to the offline profile of the new trace.
func TestReplicaReusedSessionIDStartsFresh(t *testing.T) {
	first := testTrace(t, 55, 900)
	tr := trace.Random(trace.RandomConfig{Seed: 56, Ops: 900, Threads: 3, Routines: 9})
	var buf bytes.Buffer
	if err := trace.WriteBinary2(&buf, tr); err != nil {
		t.Fatal(err)
	}
	second := buf.Bytes()
	want := offlineProfile(t, second)
	const id, stopAt = "reused", 29

	var stopped atomic.Bool
	var c *rcluster
	var successor int
	c = startReplicaCluster(t, 3, func(i int, so *server.Options, ro *replica.Options) {
		so.OnSessionBatch = func(sid string, batch int, delivered uint64) {
			if batch == stopAt && stopped.CompareAndSwap(false, true) {
				c.nodes[successor].stop() // disk kept: its copy outlives the drop
			}
		}
	})
	set := c.nodes[0].node.ReplicaSet(id)
	owner := c.index(t, set[0])
	successor = c.index(t, set[1])
	if _, err := client.Run(context.Background(), client.Options{
		Addr: c.addrs[owner], SessionID: id, Open: opener(first),
	}); err != nil {
		t.Fatalf("first upload: %v", err)
	}
	if !stopped.Load() {
		t.Fatal("the first upload ended before the successor was stopped")
	}
	c.restart(t, successor)

	res, err := client.Run(context.Background(), client.Options{
		Addr: c.addrs[owner], SessionID: id, Open: opener(second),
		MaxAttempts: 5, Backoff: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("upload of the other trace: %v (result %+v)", err, res)
	}
	if n := c.nodes[owner].obs.Scope(server.ObsScopeServer).Counter("checkpoints_discarded").Load(); n != 1 {
		t.Errorf("checkpoints_discarded = %d, want 1", n)
	}
	got, _ := c.nodes[owner].srv.Result(id)
	if got == nil || !bytes.Equal(got.Profile, want) {
		t.Fatal("profile differs from the offline pipeline")
	}
}

// TestReplicaLinkChaosFailoverSweep: every client connection is fragmented
// and mid-frame reset (budget growing with the attempt), and
// FailoverAfter=1 makes each reset hop the session to the ring successor —
// the session migrates across nodes repeatedly, each resuming from the
// replica set, and must still land byte-identical.
func TestReplicaLinkChaosFailoverSweep(t *testing.T) {
	enc := testTrace(t, 41, 900)
	want := offlineProfile(t, enc)
	before := runtime.NumGoroutine()

	for seed := int64(0); seed < 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c := startReplicaCluster(t, 3, nil)
			var attempts atomic.Int64
			var mu sync.Mutex
			dialed := map[string]int{}
			id := fmt.Sprintf("link-%d", seed)
			cd, err := client.NewClusterDialer(client.ClusterOptions{
				Nodes:         c.addrs,
				SessionID:     id,
				FailoverAfter: 1,
				DialNode: func(ctx context.Context, addr string) (net.Conn, error) {
					n := attempts.Add(1)
					mu.Lock()
					dialed[addr]++
					mu.Unlock()
					var d net.Dialer
					conn, derr := d.DialContext(ctx, "tcp", addr)
					if derr != nil {
						return nil, derr
					}
					return faultio.WrapConn(conn, faultio.ConnConfig{
						Seed:            seed*100 + n,
						MaxWriteChunk:   512,
						ResetAfterBytes: int64(len(enc)) / 5 * n,
					}), nil
				},
				Logf: t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := client.Run(context.Background(), client.Options{
				SessionID:   id,
				Open:        opener(enc),
				Dialer:      cd,
				MaxAttempts: 12,
				Backoff:     time.Millisecond,
				Jitter:      0.5,
				Seed:        seed,
			})
			if err != nil {
				t.Fatalf("upload under link chaos failed: %v (result %+v)", err, res)
			}
			if res.Reconnects == 0 {
				t.Fatalf("chaos schedule never tore a connection: %+v", res)
			}
			mu.Lock()
			distinct := len(dialed)
			mu.Unlock()
			if distinct < 2 {
				t.Fatalf("session never migrated: dial distribution %v", dialed)
			}
			if got := c.result(id, nil); !bytes.Equal(got, want) {
				t.Fatal("profile after chaotic migrations differs from offline pipeline")
			}
		})
	}
	waitNoLeak(t, before)
}

// TestReplicaHalfOpenLinkFailsOver: the first connection goes half-open
// mid-upload — writes vanish without erroring — so only the serving
// node's idle timeout can break the stall. The client must then treat it
// as any transient, fail over, and finish byte-identical.
func TestReplicaHalfOpenLinkFailsOver(t *testing.T) {
	enc := testTrace(t, 42, 700)
	want := offlineProfile(t, enc)

	for seed := int64(0); seed < 2; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c := startReplicaCluster(t, 2, func(i int, so *server.Options, ro *replica.Options) {
				so.IdleTimeout = 50 * time.Millisecond
			})
			var attempts atomic.Int64
			id := fmt.Sprintf("halfopen-%d", seed)
			cd, err := client.NewClusterDialer(client.ClusterOptions{
				Nodes:         c.addrs,
				SessionID:     id,
				FailoverAfter: 1,
				DialNode: func(ctx context.Context, addr string) (net.Conn, error) {
					var d net.Dialer
					conn, derr := d.DialContext(ctx, "tcp", addr)
					if derr != nil {
						return nil, derr
					}
					if attempts.Add(1) == 1 {
						// Half-open only the first connection, partway in.
						return faultio.WrapConn(conn, faultio.ConnConfig{
							Seed:                 seed,
							MaxWriteChunk:        512,
							BlackholeWritesAfter: int64(len(enc)) / 3,
						}), nil
					}
					return conn, nil
				},
				Logf: t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := client.Run(context.Background(), client.Options{
				SessionID:   id,
				Open:        opener(enc),
				Dialer:      cd,
				MaxAttempts: 6,
				Backoff:     2 * time.Millisecond,
			})
			if err != nil {
				t.Fatalf("upload across half-open link failed: %v (result %+v)", err, res)
			}
			if res.Reconnects == 0 {
				t.Fatalf("half-open link never forced a reconnect: %+v", res)
			}
			if got := c.result(id, nil); !bytes.Equal(got, want) {
				t.Fatal("profile after half-open failover differs from offline pipeline")
			}
		})
	}
}

// TestReplicaBusyShedFailsOver: the session's ring owner is at capacity,
// so its handshake sheds — and the cluster dialer must take the hint and
// complete the session on the ring successor, first try, no backing off
// against a full node.
func TestReplicaBusyShedFailsOver(t *testing.T) {
	enc := testTrace(t, 43, 600)
	want := offlineProfile(t, enc)

	gate := make(chan struct{})
	defer close(gate)
	var once sync.Once
	c := startReplicaCluster(t, 3, func(i int, so *server.Options, ro *replica.Options) {
		so.MaxSessions = 1
		so.OnSessionBatch = func(id string, batch int, delivered uint64) {
			if id == "holder" {
				once.Do(func() { <-gate })
			}
		}
	})

	// Find the ring owner for the session and occupy its only slot.
	ring, err := cluster.NewRing(c.addrs, 0)
	if err != nil {
		t.Fatal(err)
	}
	seq := ring.Sequence("shed-me")
	holderDone := make(chan error, 1)
	go func() {
		_, herr := client.Run(context.Background(), client.Options{
			Addr: seq[0], SessionID: "holder", Open: opener(enc),
		})
		holderDone <- herr
	}()
	waitActive(t, c.nodes[c.index(t, seq[0])].srv)

	cd, err := client.NewClusterDialer(client.ClusterOptions{
		Nodes:     c.addrs,
		SessionID: "shed-me",
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := client.Run(context.Background(), client.Options{
		SessionID: "shed-me",
		Open:      opener(enc),
		Dialer:    cd,
		Backoff:   time.Millisecond,
	})
	if err != nil {
		t.Fatalf("upload with a full owner failed: %v (result %+v)", err, res)
	}
	if res.Reconnects != 1 {
		t.Fatalf("reconnects = %d, want exactly 1 (one shed, one success)", res.Reconnects)
	}
	if got := cd.Node(); got != seq[1] {
		t.Fatalf("session landed on %s, want ring successor %s", got, seq[1])
	}
	byOwner, _ := c.nodes[c.index(t, seq[1])].srv.Result("shed-me")
	if byOwner == nil || !bytes.Equal(byOwner.Profile, want) {
		t.Fatal("profile after busy-shed failover differs from offline pipeline")
	}

	gate <- struct{}{}
	if err := <-holderDone; err != nil {
		t.Fatalf("holder session failed: %v", err)
	}
}

// waitActive polls until the node has an active session.
func waitActive(t *testing.T, s *server.Server) {
	t.Helper()
	for i := 0; ; i++ {
		if len(s.ResultIDs()) > 0 || s.ActiveSessions() > 0 {
			return
		}
		if i > 1000 {
			t.Fatalf("no session ever became active on %s", s.Addr())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReplicaHealthRoutesAroundDeadNode: once the probers eject a killed
// owner, a new session's dialer must skip it without paying a connect
// attempt — the health view saves the dial, not just the session.
func TestReplicaHealthRoutesAroundDeadNode(t *testing.T) {
	enc := testTrace(t, 44, 500)
	want := offlineProfile(t, enc)
	c := startReplicaCluster(t, 3, nil)

	health := cluster.NewHealth(c.addrs, cluster.HealthOptions{
		Interval: 10 * time.Millisecond,
		Timeout:  time.Second,
		Logf:     t.Logf,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	health.Start(ctx)
	defer health.Stop()

	// Kill the owner of the upcoming session and wait for ejection.
	ring, err := cluster.NewRing(c.addrs, 0)
	if err != nil {
		t.Fatal(err)
	}
	seq := ring.Sequence("routed")
	dead := c.index(t, seq[0])
	c.kill(t, dead)
	for i := 0; ; i++ {
		if !health.Alive(seq[0]) {
			break
		}
		if i > 500 {
			t.Fatalf("probers never ejected the killed owner; down=%v", health.Down())
		}
		time.Sleep(2 * time.Millisecond)
	}

	var mu sync.Mutex
	dialed := map[string]int{}
	cd, err := client.NewClusterDialer(client.ClusterOptions{
		Nodes:     c.addrs,
		SessionID: "routed",
		Health:    health,
		DialNode: func(ctx context.Context, addr string) (net.Conn, error) {
			mu.Lock()
			dialed[addr]++
			mu.Unlock()
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := client.Run(context.Background(), client.Options{
		SessionID: "routed",
		Open:      opener(enc),
		Dialer:    cd,
		Backoff:   time.Millisecond,
	})
	if err != nil {
		t.Fatalf("upload around dead owner failed: %v (result %+v)", err, res)
	}
	mu.Lock()
	deadDials := dialed[seq[0]]
	mu.Unlock()
	if deadDials != 0 {
		t.Fatalf("dialer paid %d connect attempts to the ejected owner", deadDials)
	}
	if got := c.result("routed", map[int]bool{dead: true}); !bytes.Equal(got, want) {
		t.Fatal("profile after health-based routing differs from offline pipeline")
	}
}

// TestReplicaFanoutServesMigratedSession: after a kill-driven migration,
// the fan-out view on any surviving node must serve the session's profile
// and flag the dead peer's absence as a partial index, never an error.
func TestReplicaFanoutServesMigratedSession(t *testing.T) {
	enc := testTrace(t, 45, 600)
	want := offlineProfile(t, enc)

	var killed atomic.Bool
	var victim atomic.Int64
	victim.Store(-1)
	var wipeOnce sync.Once
	var c *rcluster
	c = startReplicaCluster(t, 3, func(i int, so *server.Options, ro *replica.Options) {
		so.OnSessionBatch = func(id string, batch int, delivered uint64) {
			if batch == 2 && killed.CompareAndSwap(false, true) {
				victim.Store(int64(i))
				c.nodes[i].srv.Abort()
			}
		}
	})
	cd := failoverDialer(t, c, "migrated", func() {
		if v := victim.Load(); v >= 0 {
			wipeOnce.Do(func() { c.kill(t, int(v)) })
		}
	})
	if _, err := client.Run(context.Background(), client.Options{
		SessionID: "migrated", Open: opener(enc), Dialer: cd,
		MaxAttempts: 10, Backoff: 2 * time.Millisecond,
	}); err != nil {
		t.Fatalf("upload across kill failed: %v", err)
	}
	dead := int(victim.Load())

	// Stand up the debug HTTP side of every node: each survivor's fan-out
	// peers at the others (including the dead one — its HTTP side is a
	// plain unreachable address, exactly like a crashed machine). Two
	// passes: first bind listeners so every peer address exists, then
	// build fan-outs with the full peer lists.
	httpAddrs := make([]string, 3)
	srvs := make([]*httptest.Server, 3)
	muxes := make([]*http.ServeMux, 3)
	for i := range c.nodes {
		muxes[i] = http.NewServeMux()
		srvs[i] = httptest.NewServer(muxes[i])
		defer srvs[i].Close()
		httpAddrs[i] = srvs[i].Listener.Addr().String()
	}
	for i, n := range c.nodes {
		peers := make([]string, 0, 2)
		for j := range c.nodes {
			if j != i {
				peers = append(peers, httpAddrs[j])
			}
		}
		muxes[i].Handle("/profiles/", cluster.NewFanout(n.srv, peers, 500*time.Millisecond).Handler())
	}
	// The dead node's HTTP side goes away with the machine.
	srvs[dead].Close()

	for i := range c.nodes {
		if i == dead {
			continue
		}
		resp, err := http.Get("http://" + httpAddrs[i] + "/profiles/migrated")
		if err != nil {
			t.Fatalf("node %d fan-out query: %v", i, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("node %d fan-out status %d: %s", i, resp.StatusCode, body)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("node %d fan-out profile differs from offline pipeline", i)
		}
	}
}
