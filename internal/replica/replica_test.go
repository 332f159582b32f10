package replica

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"aprof/internal/profio"
	"aprof/internal/repo"
	"aprof/internal/repo/backend"
	"aprof/internal/server"
)

// testCluster is a minimal APRR-only cluster: each node gets a real TCP
// listener whose accept loop feeds ServeConn directly (the full
// APRD-multiplexed path is exercised by the chaos harness).
type testCluster struct {
	t     *testing.T
	addrs []string
	nodes map[string]*Node
	lns   map[string]net.Listener
	wg    sync.WaitGroup

	mu    sync.Mutex
	conns map[string][]net.Conn // accepted conns, by serving address
}

func newTestCluster(t *testing.T, n int, configure func(i int, o *Options)) *testCluster {
	t.Helper()
	c := &testCluster{
		t:     t,
		nodes: make(map[string]*Node),
		lns:   make(map[string]net.Listener),
		conns: make(map[string][]net.Conn),
	}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c.addrs = append(c.addrs, ln.Addr().String())
		c.lns[ln.Addr().String()] = ln
	}
	for i, addr := range c.addrs {
		o := Options{
			Self:  addr,
			Peers: append([]string(nil), c.addrs...),
			Dir:   t.TempDir(),
			Logf:  t.Logf,
		}
		if configure != nil {
			configure(i, &o)
		}
		node, err := NewNode(o)
		if err != nil {
			t.Fatal(err)
		}
		c.nodes[addr] = node
		c.serve(addr)
	}
	t.Cleanup(c.close)
	return c
}

func (c *testCluster) serve(addr string) {
	ln, node := c.lns[addr], c.nodes[addr]
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			c.mu.Lock()
			c.conns[addr] = append(c.conns[addr], conn)
			c.mu.Unlock()
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				defer conn.Close()
				node.ServeConn(conn, bufio.NewReader(conn))
			}()
		}
	}()
}

// dropConns severs every connection a node has accepted so far.
func (c *testCluster) dropConns(addr string) {
	c.mu.Lock()
	for _, conn := range c.conns[addr] {
		conn.Close()
	}
	c.conns[addr] = nil
	c.mu.Unlock()
}

func (c *testCluster) close() {
	for addr, ln := range c.lns {
		ln.Close()
		c.dropConns(addr)
	}
	for _, n := range c.nodes {
		n.Close()
	}
	c.wg.Wait()
}

// kill makes one node unreachable: listener and accepted conns closed,
// node closed.
func (c *testCluster) kill(addr string) {
	c.lns[addr].Close()
	c.dropConns(addr)
	c.nodes[addr].Close()
}

func TestReplicaSetDeterministic(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	for _, sid := range []string{"alpha", "beta", "gamma", "delta"} {
		want := c.nodes[c.addrs[0]].ReplicaSet(sid)
		if len(want) != DefaultReplicas {
			t.Fatalf("replica set size %d, want %d", len(want), DefaultReplicas)
		}
		for _, addr := range c.addrs[1:] {
			got := c.nodes[addr].ReplicaSet(sid)
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Fatalf("node %s disagrees on replica set of %q: %v vs %v", addr, sid, got, want)
			}
		}
	}
}

func TestReplicateRecoverDrop(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	origin := c.nodes[c.addrs[0]]
	ckpt := []byte("APCK pretend checkpoint, seq 100")

	if err := origin.Replicate("sess-1", 100, ckpt); err != nil {
		t.Fatalf("Replicate: %v", err)
	}

	// Every OTHER node can recover it — that is what failover does.
	for _, addr := range c.addrs[1:] {
		seq, data, err := c.nodes[addr].Recover("sess-1")
		if err != nil {
			t.Fatalf("node %s Recover: %v", addr, err)
		}
		if seq != 100 || !bytes.Equal(data, ckpt) {
			t.Fatalf("node %s recovered seq=%d (want 100), bytes match=%v", addr, seq, bytes.Equal(data, ckpt))
		}
	}

	// A stale re-push (a delayed primary) is rejected by replicas but
	// still counts as confirmed — the cluster holds at least that seq.
	if err := origin.Replicate("sess-1", 50, []byte("stale")); err != nil {
		t.Fatalf("stale Replicate should confirm, got %v", err)
	}
	seq, data, err := c.nodes[c.addrs[1]].Recover("sess-1")
	if err != nil || seq != 100 || !bytes.Equal(data, ckpt) {
		t.Fatalf("stale push overwrote replica: seq=%d err=%v", seq, err)
	}

	// Newer checkpoints supersede.
	ckpt2 := []byte("APCK pretend checkpoint, seq 200")
	if err := origin.Replicate("sess-1", 200, ckpt2); err != nil {
		t.Fatalf("Replicate v2: %v", err)
	}
	if seq, data, err = c.nodes[c.addrs[2]].Recover("sess-1"); err != nil || seq != 200 || !bytes.Equal(data, ckpt2) {
		t.Fatalf("recover after update: seq=%d err=%v", seq, err)
	}

	// Drop retires the session everywhere.
	origin.Drop("sess-1")
	for _, addr := range c.addrs {
		if _, _, err := c.nodes[addr].Recover("sess-1"); !errors.Is(err, server.ErrNoReplicaCheckpoint) {
			t.Fatalf("node %s: recover after drop: %v, want ErrNoReplicaCheckpoint", addr, err)
		}
	}
}

func TestReplicateWalksRingPastDeadMember(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	origin := c.nodes[c.addrs[0]]

	// Kill one of the two non-origin members; replication must confirm on
	// the surviving one by walking the ring past the corpse.
	c.kill(c.addrs[1])
	if err := origin.Replicate("walk", 10, []byte("data")); err != nil {
		t.Fatalf("Replicate with one dead peer: %v", err)
	}
	if seq, _, err := c.nodes[c.addrs[2]].Recover("walk"); err != nil && seq != 10 {
		t.Fatalf("survivor recover: seq=%d err=%v", seq, err)
	}
}

func TestReplicateFailsWithoutQuorum(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	origin := c.nodes[c.addrs[0]]
	c.kill(c.addrs[1])

	err := origin.Replicate("doomed", 5, []byte("data"))
	if err == nil {
		t.Fatal("Replicate confirmed with every peer dead")
	}
	if !strings.Contains(err.Error(), "0/1 confirms") {
		t.Fatalf("error should name the confirm shortfall, got: %v", err)
	}
}

// Recovery sweeps its own store AND every peer, keeping the highest seq —
// a node that missed the last push must not win with an older copy.
func TestRecoverPrefersNewestAcrossPeers(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	if _, ok, err := c.nodes[c.addrs[0]].store.Put("skew", 5, []byte("old")); err != nil || !ok {
		t.Fatalf("seed old copy: ok=%v err=%v", ok, err)
	}
	if _, ok, err := c.nodes[c.addrs[2]].store.Put("skew", 9, []byte("new")); err != nil || !ok {
		t.Fatalf("seed new copy: ok=%v err=%v", ok, err)
	}
	for _, addr := range c.addrs {
		seq, data, err := c.nodes[addr].Recover("skew")
		if err != nil {
			t.Fatalf("node %s Recover: %v", addr, err)
		}
		if seq != 9 || string(data) != "new" {
			t.Fatalf("node %s recovered seq=%d data=%q, want the newest copy", addr, seq, data)
		}
	}
}

// TestCkptStoreDiscardsTornFiles: a node started over a checkpoint directory
// that holds crash wreckage — torn, empty, bit-flipped, foreign and pre-log
// RCK1 files, and a stray temp of a log replacement — serves, to itself and
// to its peers, only the intact log, removes the wreckage from disk, and
// keeps taking checkpoints that survive the next restart.
func TestCkptStoreDiscardsTornFiles(t *testing.T) {
	dir := t.TempDir()
	seed, err := profio.OpenCheckpointStore(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := seed.Put("good", 7, []byte("intact")); err != nil || !ok {
		t.Fatalf("put: ok=%v err=%v", ok, err)
	}
	src := filepath.Join(t.TempDir(), "src.rck")
	if err := profio.NewCheckpointLog(src).Append(9, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(whole)
	flipped[len(flipped)/2] ^= 0x40
	wreckage := map[string][]byte{
		"torn.rck":             whole[:len(whole)/2],
		"empty.rck":            nil,
		"flipped.rck":          flipped,
		"notmagic.rck":         []byte("XXXXjunk"),
		"legacy.rck":           []byte("RCK1\x09\x07payload\x00\x00\x00\x00"),
		".good.rck.tmp3141592": whole,
	}
	for name, data := range wreckage {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	c := newTestCluster(t, 2, func(i int, o *Options) {
		if i == 0 {
			o.Dir = dir
		}
	})
	owner := c.nodes[c.addrs[0]]
	for _, addr := range c.addrs {
		seq, data, err := c.nodes[addr].Recover("good")
		if err != nil || seq != 7 || string(data) != "intact" {
			t.Fatalf("node %s recovered good: seq=%d data=%q err=%v", addr, seq, data, err)
		}
		for _, id := range []string{"torn", "empty", "flipped", "notmagic", "legacy"} {
			if _, _, err := c.nodes[addr].Recover(id); !errors.Is(err, server.ErrNoReplicaCheckpoint) {
				t.Errorf("node %s recovered %s: %v, want ErrNoReplicaCheckpoint", addr, id, err)
			}
		}
	}
	entries, _ := os.ReadDir(dir)
	var left []string
	for _, e := range entries {
		left = append(left, e.Name())
	}
	if !slices.Equal(left, []string{"good.rck"}) {
		t.Fatalf("start left %v, want only [good.rck]", left)
	}

	// The reloaded log takes further checkpoints, durable across a restart.
	if err := owner.Replicate("good", 8, []byte("newer")); err != nil {
		t.Fatalf("Replicate after restart: %v", err)
	}
	reopened, err := profio.OpenCheckpointStore(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if seq, data, ok := reopened.Get("good"); !ok || seq != 8 || string(data) != "newer" {
		t.Fatalf("after second restart: seq=%d data=%q ok=%v", seq, data, ok)
	}
}

func TestNewNodeValidation(t *testing.T) {
	if _, err := NewNode(Options{Peers: []string{"a:1"}}); err == nil {
		t.Fatal("missing Self accepted")
	}
	if _, err := NewNode(Options{Self: "b:1", Peers: []string{"a:1"}}); err == nil {
		t.Fatal("Self outside membership accepted")
	}
	if _, err := NewNode(Options{Self: "a:1", Peers: []string{"a:1"}, Replicas: 2}); err == nil {
		t.Fatal("replica count beyond membership accepted")
	}
	if _, err := NewNode(Options{Self: "a:1", Peers: []string{"a:1", "b:1"}, Replicas: 2, MinConfirms: 2}); err == nil {
		t.Fatal("MinConfirms beyond non-primary replicas accepted")
	}
}

// The APRR handler serves a node's store backend read-only — the transport
// beneath backend.Peer and store anti-entropy.
func TestPeerBackendServesRemoteStore(t *testing.T) {
	dir := t.TempDir()
	be, err := backend.OpenLocal(dir)
	if err != nil {
		t.Fatal(err)
	}
	r, err := repo.OpenOrInit(be, repo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SaveProfile("served", bytes.Repeat([]byte("profile body "), 1000)); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	c := newTestCluster(t, 2, func(i int, o *Options) {
		if i == 0 {
			o.Backend = be
		}
	})

	peer := backend.NewPeer(c.addrs[0], backend.PeerOptions{})
	defer peer.Close()

	// List + Load every object type the sync path reads, and verify the
	// bytes arrive intact.
	for _, typ := range []backend.Type{backend.PackType, backend.SnapshotType, backend.IndexType} {
		names, err := peer.List(typ)
		if err != nil {
			t.Fatalf("List(%s): %v", typ, err)
		}
		local, err := be.List(typ)
		if err != nil {
			t.Fatal(err)
		}
		if len(names) != len(local) {
			t.Fatalf("List(%s): %d names, local has %d", typ, len(names), len(local))
		}
		for _, name := range names {
			remote, err := peer.Load(backend.Handle{Type: typ, Name: name})
			if err != nil {
				t.Fatalf("Load(%s/%s): %v", typ, name, err)
			}
			want, err := be.Load(backend.Handle{Type: typ, Name: name})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(remote, want) {
				t.Fatalf("Load(%s/%s): remote bytes differ", typ, name)
			}
		}
	}

	// Misses and writes.
	if _, err := peer.Load(backend.Handle{Type: backend.PackType, Name: "nope"}); !errors.Is(err, backend.ErrNotFound) {
		t.Fatalf("missing object: %v, want ErrNotFound", err)
	}
	if err := peer.Save(backend.Handle{Type: backend.PackType, Name: "x"}, []byte("y")); !errors.Is(err, backend.ErrPeerReadOnly) {
		t.Fatalf("Save: %v, want ErrPeerReadOnly", err)
	}
	if err := peer.Remove(backend.Handle{Type: backend.PackType, Name: "x"}); !errors.Is(err, backend.ErrPeerReadOnly) {
		t.Fatalf("Remove: %v, want ErrPeerReadOnly", err)
	}

	// A node with no backend refuses, explicitly.
	peer2 := backend.NewPeer(c.addrs[1], backend.PeerOptions{})
	defer peer2.Close()
	if _, err := peer2.List(backend.PackType); err == nil {
		t.Fatal("backend-less node served a list")
	}
}

// A peer connection survives the peer restarting: the cached conn goes
// bad, roundTrip redials once, the exchange succeeds.
func TestRoundTripRedialsAfterPeerRestart(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	origin := c.nodes[c.addrs[0]]

	if err := origin.Replicate("redial", 1, []byte("one")); err != nil {
		t.Fatalf("first push: %v", err)
	}

	// Bounce the peer's listener on the same address: existing conns die.
	addr := c.addrs[1]
	c.lns[addr].Close()
	c.dropConns(addr)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	c.lns[addr] = ln
	c.serve(addr)

	if err := origin.Replicate("redial", 2, []byte("two")); err != nil {
		t.Fatalf("push after peer restart: %v", err)
	}
}
