package server

import (
	"bufio"
	"errors"
	"net"

	"aprof/internal/profio"
)

// ErrNoReplicaCheckpoint is returned by Recover when no node — local or
// peer — holds a checkpoint for the session. It is the normal answer for
// a fresh session, not a failure.
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
//     checkpoint is stored on this node and pushed to the session's ring
//     successors BEFORE the ack is written, so a node loss (disk included)
//     after an ack can always resume from a peer, byte-identically.
//   - Session start recovers the newest checkpoint the replica set, this
//     node included, holds: failover needs no shared directory.
type ReplicaService interface {
	// ServeConn serves one already-peeked APRR connection until it closes.
	ServeConn(conn net.Conn, br *bufio.Reader)
	checkpoints
}

// checkpoints is where a session's checkpoints are committed, recovered
// from and dropped: the ReplicaService on a replicating node, else a
// single node's store over Options.CheckpointDir.
type checkpoints interface {
	// Replicate makes one checkpoint (seq = events delivered) durable in
	// this node's store and, replicated, on the session's replica set,
	// returning nil only once it is. data is the session's checkpoint
	// buffer, which the next checkpoint overwrites: it is valid only until
	// Replicate returns, and an implementation that keeps it must copy it.
	Replicate(session string, seq uint64, data []byte) error
	// Recover returns the session's newest checkpoint, or
	// ErrNoReplicaCheckpoint.
	Recover(session string) (seq uint64, data []byte, err error)
	// Drop retires the session's checkpoints, best-effort.
	Drop(session string)
}

// localStore is a single node's checkpoint store: the store a replicating
// node keeps, without the replica set.
type localStore struct{ *profio.CheckpointStore }

func (l localStore) Replicate(session string, seq uint64, data []byte) error {
	_, _, err := l.Put(session, seq, data)
	return err
}

func (l localStore) Recover(session string) (uint64, []byte, error) {
	if seq, data, ok := l.Get(session); ok {
		return seq, data, nil
	}
	return 0, nil, ErrNoReplicaCheckpoint
}
