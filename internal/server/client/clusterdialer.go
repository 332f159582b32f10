package client

// ClusterDialer routes one session's connections across an aprofd cluster.
// The session id hashes onto the consistent-hash ring, which yields a
// deterministic failover sequence (owner, successor, successor's
// successor, ...); the dialer walks it in response to what each attempt
// reported:
//
//   - connect error       -> the node is unreachable: eject it from the
//     health view and try the next candidate inside the same DialContext
//     call — a dead node costs one dial, not one backoff cycle.
//   - busy-shed handshake -> the node is healthy but full or draining:
//     move to the successor immediately. Admission-control shedding is the
//     cluster telling the client where not to be.
//   - mid-stream failure  -> retry the same node first: it holds the
//     session's checkpoint, so staying put resumes from the highest acked
//     offset. Only after FailoverAfter consecutive failures is the node
//     abandoned for its successor (where, recovering the checkpoint from
//     the session's replica set, the session still resumes from the acked
//     offset).
//
// Wherever the session lands, resume-by-resend replays the exact event
// prefix the adopted checkpoint accounts for, so the final profile is
// byte-identical to an uninterrupted single-node run.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

	"aprof/internal/cluster"
)

// DefaultFailoverAfter is how many consecutive mid-stream failures on one
// node the dialer tolerates before moving to the ring successor.
const DefaultFailoverAfter = 3

// ClusterOptions configures a ClusterDialer.
type ClusterOptions struct {
	// Nodes is the static member list: each node's APRD TCP address.
	Nodes []string
	// SessionID is the routing key; it must match Options.SessionID of the
	// Run call this dialer feeds.
	SessionID string
	// VirtualNodes tunes the ring (default cluster.DefaultVirtualNodes).
	VirtualNodes int
	// Health, when non-nil, supplies the liveness view consulted before
	// dialing and receives connect-failure reports. Run cluster.NewHealth
	// probers over the same node list to keep it current.
	Health *cluster.Health
	// FailoverAfter is the consecutive mid-stream failure tolerance per
	// node (default DefaultFailoverAfter).
	FailoverAfter int
	// DialNode replaces the default TCP dial of one node — the chaos
	// harness's injection point.
	DialNode func(ctx context.Context, addr string) (net.Conn, error)
	// Logf logs routing decisions (nil discards).
	Logf func(format string, args ...any)
}

// ClusterDialer implements ConnDialer and AttemptObserver over a node
// ring. Use one per Run call: it carries per-session routing state.
type ClusterDialer struct {
	opts ClusterOptions
	seq  []string // failover order for this session, owner first

	mu             sync.Mutex
	cur            int // index into seq currently preferred
	streamFailures int // consecutive mid-stream failures on seq[cur]
}

// NewClusterDialer builds the routing dialer for one session.
func NewClusterDialer(opts ClusterOptions) (*ClusterDialer, error) {
	ring, err := cluster.NewRing(opts.Nodes, opts.VirtualNodes)
	if err != nil {
		return nil, err
	}
	if opts.SessionID == "" {
		return nil, errors.New("client: ClusterOptions.SessionID is required")
	}
	if opts.FailoverAfter <= 0 {
		opts.FailoverAfter = DefaultFailoverAfter
	}
	if opts.DialNode == nil {
		opts.DialNode = func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	return &ClusterDialer{opts: opts, seq: ring.Sequence(opts.SessionID)}, nil
}

// Node returns the currently preferred node for the session.
func (d *ClusterDialer) Node() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.seq[d.cur]
}

// Owner returns the session's ring owner (the first-choice node).
func (d *ClusterDialer) Owner() string { return d.seq[0] }

// DialContext connects to the preferred node, walking the failover
// sequence past nodes that refuse the connection. Known-dead nodes are
// skipped unless every node is presumed dead — then everything is tried,
// because a stale health view must degrade to extra dials, not an outage.
func (d *ClusterDialer) DialContext(ctx context.Context) (net.Conn, error) {
	d.mu.Lock()
	start := d.cur
	d.mu.Unlock()

	var lastErr error
	skipped := 0
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < len(d.seq); i++ {
			idx := (start + i) % len(d.seq)
			addr := d.seq[idx]
			// First pass honors the health view; the desperation pass (only
			// reached when the first yielded nothing but skips) tries
			// everything.
			if pass == 0 && d.opts.Health != nil && !d.opts.Health.Alive(addr) {
				skipped++
				continue
			}
			conn, err := d.opts.DialNode(ctx, addr)
			if err != nil {
				lastErr = err
				if d.opts.Health != nil {
					d.opts.Health.ReportFailure(addr)
				}
				d.opts.Logf("aprof client: node %s unreachable: %v", addr, err)
				continue
			}
			d.mu.Lock()
			if d.cur != idx {
				d.opts.Logf("aprof client: session %s routed to %s", d.opts.SessionID, addr)
				d.cur = idx
				d.streamFailures = 0
			}
			d.mu.Unlock()
			return conn, nil
		}
		if skipped == 0 || lastErr != nil {
			break
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("client: no cluster node reachable for session %s", d.opts.SessionID)
	}
	return nil, lastErr
}

// AttemptResult receives the classified outcome of each Run attempt and
// moves the preference accordingly.
func (d *ClusterDialer) AttemptResult(err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case err == nil:
		d.streamFailures = 0
	case errors.Is(err, ErrPermanent):
		// Routing cannot fix a rejected session.
	case errors.Is(err, ErrBusy):
		// The node shed us by design; its successor is the deterministic
		// second choice every other participant would also compute.
		d.opts.Logf("aprof client: node %s shed session %s; failing over", d.seq[d.cur], d.opts.SessionID)
		d.advanceLocked()
	default:
		// Mid-stream transient: prefer the checkpoint locality of the
		// current node until it proves persistently broken.
		d.streamFailures++
		if d.streamFailures >= d.opts.FailoverAfter {
			d.opts.Logf("aprof client: node %s failed %d attempts for session %s; failing over",
				d.seq[d.cur], d.streamFailures, d.opts.SessionID)
			d.advanceLocked()
		}
	}
}

// advanceLocked moves the preference to the ring successor. Callers hold
// d.mu.
func (d *ClusterDialer) advanceLocked() {
	d.cur = (d.cur + 1) % len(d.seq)
	d.streamFailures = 0
}
