// Package cluster scales the aprofd daemon horizontally: a static member
// list is arranged on a consistent-hash ring that deterministically places
// every session id on one node, a health prober keeps a live view of which
// members currently answer APRD status probes, and a fan-out handler merges
// every node's /profiles/ view into one cluster-wide query endpoint.
//
// The design is deliberately gossip-free: membership is configuration, not
// consensus. What the ring buys over static assignment is a deterministic
// failover order — every client computes the same owner and the same
// successor sequence for a session id, so when the owner dies mid-stream
// the session migrates to the node every other participant would also pick,
// and (recovering the checkpoint from the session's replica set) resumes
// from the server-acked offset via the APCK resend protocol. Profile output is byte-identical
// across migrations because resume-by-resend replays the exact event
// prefix the checkpoint accounts for.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// DefaultVirtualNodes is the per-member virtual node count. 64 points per
// member keeps the expected load imbalance across a handful of nodes under
// a few percent while the ring stays tiny (hundreds of points).
const DefaultVirtualNodes = 64

// ringPoint is one virtual node: a hash position owned by a member.
type ringPoint struct {
	hash uint64
	node string
}

// Ring is an immutable consistent-hash ring over a static member list.
// Construct it once; it is safe for concurrent use.
type Ring struct {
	points []ringPoint // sorted by hash
	nodes  []string    // distinct members, sorted
}

// NewRing builds a ring of vnodes virtual nodes per member (default
// DefaultVirtualNodes when vnodes <= 0). Members must be non-empty and
// distinct: routing is configuration, and a duplicated address would
// silently double that node's keyspace share.
func NewRing(nodes []string, vnodes int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	seen := make(map[string]struct{}, len(nodes))
	sorted := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if n == "" {
			return nil, fmt.Errorf("cluster: empty node address")
		}
		if _, dup := seen[n]; dup {
			return nil, fmt.Errorf("cluster: duplicate node address %q", n)
		}
		seen[n] = struct{}{}
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	r := &Ring{nodes: sorted, points: make([]ringPoint, 0, len(sorted)*vnodes)}
	for _, n := range sorted {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: ringHash(n + "#" + strconv.Itoa(v)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A full 64-bit hash collision between virtual nodes is vanishingly
		// rare; break it by name so the ring order stays deterministic
		// regardless of input order.
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// ringHash is the placement hash: FNV-1a 64 through a splitmix64-style
// finalizer. Plain FNV leaves short, similar keys ("session-1",
// "session-2", "node#0".."node#63") correlated in the high bits, which
// skews ring ownership badly; the mix restores avalanche. It only has to
// be deterministic and well-spread; it is not an integrity check.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Nodes returns the member list in sorted order (a copy).
func (r *Ring) Nodes() []string {
	return append([]string(nil), r.nodes...)
}

// Owner returns the node a key is placed on: the owner of the first
// virtual node at or clockwise from the key's hash.
func (r *Ring) Owner(key string) string {
	return r.points[r.search(key)].node
}

// Sequence returns every member exactly once, in failover order for key:
// the owner first, then each distinct node encountered walking the ring
// clockwise. Every participant computes the same sequence, so the
// "successor" a client fails over to is the node the rest of the cluster
// expects to adopt the session.
func (r *Ring) Sequence(key string) []string {
	seq := make([]string, 0, len(r.nodes))
	seen := make(map[string]struct{}, len(r.nodes))
	for i, start := 0, r.search(key); len(seq) < len(r.nodes); i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, ok := seen[p.node]; !ok {
			seen[p.node] = struct{}{}
			seq = append(seq, p.node)
		}
	}
	return seq
}

// search returns the index of the first ring point at or after key's hash,
// wrapping to 0 past the last point.
func (r *Ring) search(key string) int {
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}
