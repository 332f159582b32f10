package server

import (
	"bufio"
	"errors"
	"net"
)

// ErrNoReplicaCheckpoint is returned by ReplicaService.Recover when no
// node — local or peer — holds a checkpoint for the session. It is the
// normal answer for a fresh session, not a failure.
var ErrNoReplicaCheckpoint = errors.New("no replica holds a checkpoint for this session")

// ReplicaService is the daemon's hook into peer-to-peer checkpoint
// replication (implemented by replica.Node; an interface here so the
// server package does not depend on the replication layer).
//
// With a ReplicaService configured the daemon runs in replicated mode:
//
//   - Replication connections (APRR protocol) are multiplexed onto the
//     ordinary listen port — the server peeks the magic and hands matching
//     connections to ServeConn.
//   - Batch acks coalesce to checkpoint boundaries, and each boundary's
//     fresh checkpoint goes through Replicate — stored on this node and
//     pushed to the session's ring successors — BEFORE the ack is written.
//     An event is never acknowledged unless the checkpoint covering it is
//     confirmed on the replica set — so a node loss (disk included) after
//     an ack can always resume from a peer, byte-identically.
//   - At session start, Recover asks the replica set, this node included,
//     for the newest checkpoint, making failover work with no shared
//     directory.
//   - Drop retires a session's checkpoints: a completed one's, or an
//     unusable one found at session start.
type ReplicaService interface {
	// ServeConn serves one already-peeked APRR connection until it closes.
	ServeConn(conn net.Conn, br *bufio.Reader)
	// Replicate stores one checkpoint (seq = events delivered) on this
	// node and pushes it to the session's replica set, returning nil only
	// once the local copy is durable and enough replicas confirmed it.
	// data is the session's checkpoint buffer, which the next checkpoint
	// overwrites: it is valid only until Replicate returns, and an
	// implementation that keeps it must copy it.
	Replicate(session string, seq uint64, data []byte) error
	// Recover returns the newest replicated checkpoint for the session,
	// or ErrNoReplicaCheckpoint.
	Recover(session string) (seq uint64, data []byte, err error)
	// Drop retires the session's replicated checkpoints, best-effort.
	Drop(session string)
}
