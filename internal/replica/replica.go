// Package replica makes the aprofd cluster need no shared disk: each
// node keeps every checkpoint it holds — those of the sessions it serves
// and the replicas it stores for its peers — in one checkpoint store of
// its own, session checkpoints are pushed peer-to-peer to ring successors
// over the APRR wire protocol, failover nodes recover them from any
// replica, and the content-addressed store syncs between peers by pulling
// only missing blobs. Any R−1 node losses — SIGKILL plus a full
// data-directory wipe — are survivable with zero shared infrastructure.
//
// A Node plays both sides of the protocol: it serves APRR connections
// (multiplexed onto the node's existing ingest listener by a 4-byte magic
// peek) and it stores this node's session checkpoints and pushes them to
// their replica set. The replica set of a session is deterministic: the
// first Replicas members of the consistent-hash ring sequence for the
// session id — the same order every node computes, and the same order
// client failover walks, so the node a client fails over to is exactly a
// node that holds (or can cheaply reach) the checkpoint.
package replica

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"aprof/internal/cluster"
	"aprof/internal/obs"
	"aprof/internal/profio"
	"aprof/internal/replica/wire"
	"aprof/internal/repo/backend"
	"aprof/internal/server"
)

// ObsScopeReplica is the metric scope of the replication layer.
const ObsScopeReplica = "replica"

// Defaults for Options fields left zero.
const (
	DefaultReplicas    = 2
	DefaultDialTimeout = 2 * time.Second
	DefaultIOTimeout   = 10 * time.Second
)

// Options configures a Node.
type Options struct {
	// Self is this node's own ring address. It is skipped when choosing
	// push targets (this node's copy goes to its own checkpoint store) but
	// still counts as one of the session's Replicas copies.
	Self string
	// Peers is the full cluster membership — every node's ingest address,
	// including Self. All members must agree on this list: the replica set
	// of a session is a pure function of it.
	Peers []string
	// Replicas is the total number of checkpoint copies per session,
	// including the primary's own copy (default DefaultReplicas = 2).
	Replicas int
	// MinConfirms is how many peer confirmations a Replicate call needs
	// before it succeeds — and therefore before the server acks the batch.
	// Default Replicas−1: with R=2, one confirmed peer copy plus the local
	// copy survive any single node loss.
	MinConfirms int
	// VirtualNodes tunes the ring (default cluster.DefaultVirtualNodes).
	VirtualNodes int
	// Dir, when set, persists the node's checkpoint store (a
	// profio.CheckpointStore, for the sessions this node serves and the
	// replicas it receives alike) so it survives a restart of this node.
	// Empty keeps checkpoints in memory only.
	Dir string
	// Backend, when set, is served read-only to peers over APRR (load and
	// list of packs, snapshots, index caches) for store anti-entropy sync.
	// Nil rejects backend requests.
	Backend backend.Backend
	// DialTimeout / IOTimeout bound each peer dial and each request
	// round-trip, so a partitioned peer costs a bounded wait, not a hang.
	DialTimeout time.Duration
	IOTimeout   time.Duration
	// Dial overrides the peer dial function (tests inject chaos links).
	Dial func(addr string) (net.Conn, error)
	// Obs receives replication metrics under scope "replica" (nil disables).
	Obs *obs.Registry
	// Logf logs replication events (nil discards).
	Logf func(format string, args ...any)
}

type replicaMetrics struct {
	pushes        *obs.Counter
	pushFailed    *obs.Counter
	pushStale     *obs.Counter
	received      *obs.Counter
	staleRejected *obs.Counter
	recovered     *obs.Counter
	recoverMissed *obs.Counter
	drops         *obs.Counter
	servedLoads   *obs.Counter
	servedLists   *obs.Counter
	redials       *obs.Counter
	appendUS      *obs.Histogram
}

func newReplicaMetrics(reg *obs.Registry) replicaMetrics {
	s := reg.Scope(ObsScopeReplica)
	return replicaMetrics{
		pushes:        s.Counter("checkpoints_pushed"),
		pushFailed:    s.Counter("pushes_failed"),
		pushStale:     s.Counter("pushes_stale"),
		received:      s.Counter("checkpoints_received"),
		staleRejected: s.Counter("stale_puts_rejected"),
		recovered:     s.Counter("checkpoints_recovered"),
		recoverMissed: s.Counter("recoveries_empty"),
		drops:         s.Counter("checkpoints_dropped"),
		servedLoads:   s.Counter("backend_loads_served"),
		servedLists:   s.Counter("backend_lists_served"),
		redials:       s.Counter("peer_redials"),
		appendUS:      s.Histogram("checkpoint_append_us"),
	}
}

// Node is one cluster member's replication endpoint: the APRR server for
// its peers and the replicator for its own sessions.
type Node struct {
	opts  Options
	ring  *cluster.Ring
	m     replicaMetrics
	store *profio.CheckpointStore

	mu     sync.Mutex
	conns  map[string]*peerConn
	closed bool
}

// peerConn is one cached connection to a peer; requests on it are
// serialized (APRR exchanges are strictly in order).
type peerConn struct {
	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	// wbuf is reused to encode requests: a checkpoint push is as large as
	// the checkpoint.
	wbuf []byte
}

// NewNode validates the membership and returns a ready Node. It fails
// fast on the misconfigurations that would otherwise surface as silent
// non-replication: an empty peer list, a Self not in it, or a replica
// count the membership cannot satisfy.
func NewNode(o Options) (*Node, error) {
	if o.Replicas <= 0 {
		o.Replicas = DefaultReplicas
	}
	if o.MinConfirms <= 0 {
		o.MinConfirms = o.Replicas - 1
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = DefaultDialTimeout
	}
	if o.IOTimeout <= 0 {
		o.IOTimeout = DefaultIOTimeout
	}
	if o.Dial == nil {
		timeout := o.DialTimeout
		o.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	if o.Self == "" {
		return nil, errors.New("replica: Options.Self (this node's ring address) is required")
	}
	ring, err := cluster.NewRing(o.Peers, o.VirtualNodes)
	if err != nil {
		return nil, fmt.Errorf("replica: membership: %w", err)
	}
	selfKnown := false
	for _, p := range o.Peers {
		if p == o.Self {
			selfKnown = true
			break
		}
	}
	if !selfKnown {
		return nil, fmt.Errorf("replica: self %q is not in the peer list %v", o.Self, o.Peers)
	}
	if o.Replicas > len(o.Peers) {
		return nil, fmt.Errorf("replica: %d replicas need at least %d members, have %d",
			o.Replicas, o.Replicas, len(o.Peers))
	}
	if o.MinConfirms > o.Replicas-1 {
		return nil, fmt.Errorf("replica: MinConfirms %d exceeds the %d non-primary replicas",
			o.MinConfirms, o.Replicas-1)
	}
	m := newReplicaMetrics(o.Obs)
	store, err := profio.OpenCheckpointStore(o.Dir, m.appendUS, nil)
	if err != nil {
		return nil, err
	}
	return &Node{
		opts:  o,
		ring:  ring,
		m:     m,
		store: store,
		conns: make(map[string]*peerConn),
	}, nil
}

func (n *Node) logf(format string, args ...any) {
	if n.opts.Logf != nil {
		n.opts.Logf(format, args...)
	}
}

// ReplicaSet returns the deterministic replica set of a session id: the
// first Replicas ring members in failover order.
func (n *Node) ReplicaSet(session string) []string {
	seq := n.ring.Sequence(session)
	if len(seq) > n.opts.Replicas {
		seq = seq[:n.opts.Replicas]
	}
	return seq
}

// Replicate makes a checkpoint (seq = its delivered-event count) durable
// on the session's replica set: it stores a copy in this node's own
// checkpoint store and, in parallel, pushes the checkpoint to the ring
// successors, walking past any member that is down, until MinConfirms
// peers have confirmed. It returns only once the local put has finished,
// so data may be reused afterwards. It returns an error — and the caller
// must not ack the batch — when the local put fails or fewer confirmations
// are reachable: an ack must never promise durability the cluster doesn't
// have.
func (n *Node) Replicate(session string, seq uint64, data []byte) error {
	local := make(chan error, 1)
	go func() {
		// A stale local put means this node already holds a newer copy.
		_, _, err := n.store.Put(session, seq, data)
		local <- err
	}()
	err := n.push(session, seq, data)
	if lerr := <-local; lerr != nil {
		err = errors.Join(fmt.Errorf("replica: checkpoint %s seq %d: local copy: %w", session, seq, lerr), err)
	}
	return err
}

// push sends a checkpoint to the session's ring successors until
// MinConfirms of them have confirmed.
func (n *Node) push(session string, seq uint64, data []byte) error {
	confirms := 0
	var lastErr error
	for _, peer := range n.ring.Sequence(session) {
		if peer == n.opts.Self {
			continue
		}
		resp, err := n.roundTrip(peer, wire.Request{
			Kind: wire.KindPut, Seq: seq, Session: session, Data: data,
		})
		switch {
		case err != nil:
			lastErr = fmt.Errorf("peer %s: %w", peer, err)
			n.logf("replica: push %s seq %d to %s: %v", session, seq, peer, err)
			continue
		case resp.Status == wire.StatusOK:
			confirms++
		case resp.Status == wire.StatusStale:
			// The peer holds a newer copy — a resumed-elsewhere session's
			// leftover push. Counts as confirmed: the cluster durably holds
			// at least seq.
			n.m.pushStale.Inc()
			confirms++
		default:
			lastErr = fmt.Errorf("peer %s: %s", peer, respErr(resp))
			n.logf("replica: push %s seq %d to %s: %s", session, seq, peer, respErr(resp))
			continue
		}
		if confirms >= n.opts.MinConfirms {
			n.m.pushes.Inc()
			return nil
		}
	}
	n.m.pushFailed.Inc()
	if lastErr == nil {
		lastErr = errors.New("no eligible peers")
	}
	return fmt.Errorf("replica: checkpoint %s seq %d: %d/%d confirms: %w",
		session, seq, confirms, n.opts.MinConfirms, lastErr)
}

// Recover fetches the freshest checkpoint replica for a session: this
// node's own checkpoint store plus every peer, highest sequence wins. Peers
// that are down are skipped — that is the point.
// server.ErrNoReplicaCheckpoint means no reachable member holds one (a
// genuinely fresh session looks the same).
func (n *Node) Recover(session string) (uint64, []byte, error) {
	bestSeq, bestData := uint64(0), []byte(nil)
	if seq, data, ok := n.store.Get(session); ok {
		bestSeq, bestData = seq, data
	}
	for _, peer := range n.opts.Peers {
		if peer == n.opts.Self {
			continue
		}
		resp, err := n.roundTrip(peer, wire.Request{Kind: wire.KindGet, Session: session})
		if err != nil {
			n.logf("replica: recover %s from %s: %v", session, peer, err)
			continue
		}
		if resp.Status == wire.StatusOK && (bestData == nil || resp.Seq > bestSeq) {
			bestSeq, bestData = resp.Seq, resp.Data
		}
	}
	if bestData == nil {
		n.m.recoverMissed.Inc()
		return 0, nil, server.ErrNoReplicaCheckpoint
	}
	n.m.recovered.Inc()
	return bestSeq, bestData, nil
}

// Drop removes a completed session's replicas, locally and on every peer,
// best-effort: a leftover replica is rejected at resume time by its stale
// sequence, so a missed drop costs bytes, not correctness.
func (n *Node) Drop(session string) {
	n.m.drops.Inc()
	n.store.Drop(session)
	for _, peer := range n.opts.Peers {
		if peer == n.opts.Self {
			continue
		}
		if _, err := n.roundTrip(peer, wire.Request{Kind: wire.KindDrop, Session: session}); err != nil {
			n.logf("replica: drop %s on %s: %v", session, peer, err)
		}
	}
}

// Close tears down all cached peer connections. The Node stops pushing;
// in-flight round-trips fail.
func (n *Node) Close() error {
	n.mu.Lock()
	n.closed = true
	conns := n.conns
	n.conns = make(map[string]*peerConn)
	n.mu.Unlock()
	for _, pc := range conns {
		if pc.conn != nil {
			pc.conn.Close()
		}
	}
	return nil
}

// roundTrip performs one request/response exchange with a peer over its
// cached connection, redialing once when the cached connection has gone
// bad (a peer restart, an idle-timeout cut, a chaos reset).
func (n *Node) roundTrip(peer string, req Request) (wire.Response, error) {
	pc, err := n.peer(peer)
	if err != nil {
		return wire.Response{}, err
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for attempt := 0; ; attempt++ {
		if pc.conn == nil {
			conn, err := n.opts.Dial(peer)
			if err != nil {
				return wire.Response{}, err
			}
			if err := n.prologue(conn); err != nil {
				conn.Close()
				return wire.Response{}, err
			}
			pc.conn, pc.br = conn, bufio.NewReader(conn)
			if attempt > 0 {
				n.m.redials.Inc()
			}
		}
		resp, err := n.exchange(pc, req)
		if err == nil {
			return resp, nil
		}
		pc.conn.Close()
		pc.conn, pc.br = nil, nil
		if attempt > 0 {
			return wire.Response{}, err
		}
	}
}

type Request = wire.Request

func (n *Node) prologue(conn net.Conn) error {
	conn.SetWriteDeadline(time.Now().Add(n.opts.IOTimeout))
	defer conn.SetWriteDeadline(time.Time{})
	_, err := conn.Write(wire.AppendHandshake(nil))
	return err
}

func (n *Node) exchange(pc *peerConn, req wire.Request) (wire.Response, error) {
	deadline := time.Now().Add(n.opts.IOTimeout)
	pc.conn.SetDeadline(deadline)
	defer pc.conn.SetDeadline(time.Time{})
	pc.wbuf = wire.AppendRequest(pc.wbuf[:0], req)
	if _, err := pc.conn.Write(pc.wbuf); err != nil {
		return wire.Response{}, err
	}
	return wire.ReadResponse(pc.br)
}

func (n *Node) peer(addr string) (*peerConn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, errors.New("replica: node closed")
	}
	pc, ok := n.conns[addr]
	if !ok {
		pc = &peerConn{}
		n.conns[addr] = pc
	}
	return pc, nil
}

func respErr(resp wire.Response) string {
	if resp.Status == wire.StatusErr {
		return resp.Msg
	}
	return fmt.Sprintf("unexpected status %q", resp.Status)
}
