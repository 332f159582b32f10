package replica

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"aprof/internal/core"
	"aprof/internal/obs"
	"aprof/internal/profio"
)

// ckptStore is the node's one checkpoint store: it holds the checkpoints
// of the sessions this node serves and the replicas it stores on behalf of
// its peers alike, keyed by session id with a monotonic sequence number
// (the checkpoint's delivered-event count). Puts with a sequence at or
// below the stored one are rejected as stale: a delayed push from a
// primary that has since failed over can never roll a copy backwards.
//
// With a directory configured, every accepted checkpoint is appended to the
// session's checkpoint log (profio.CheckpointLog, <dir>/<session>.rck) and
// is durable before the put returns; the logs are reloaded on open, so a
// restarted node still serves the checkpoints it had confirmed. A log
// without an intact record — a torn write, bit rot, or a file of the
// pre-log RCK1 format — is discarded on reload, and so is the temp file a
// crash inside a log replacement leaves behind.
type ckptStore struct {
	dir string
	// appendUS times each accepted put: the log append and its fsync.
	appendUS *obs.Histogram

	mu   sync.Mutex
	byID map[string]*ckptEntry
}

type ckptEntry struct {
	seq  uint64
	data []byte
	log  *profio.CheckpointLog // nil without a directory
}

// ckptFileExt is the file extension of the replica logs.
const ckptFileExt = ".rck"

func openCkptStore(dir string, appendUS *obs.Histogram) (*ckptStore, error) {
	s := &ckptStore{dir: dir, appendUS: appendUS, byID: make(map[string]*ckptEntry)}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("replica: checkpoint store: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("replica: checkpoint store: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		path := filepath.Join(dir, name)
		if profio.StrayCheckpointTemp(name, ckptFileExt) {
			os.Remove(path)
			continue
		}
		if !strings.HasSuffix(name, ckptFileExt) || strings.HasPrefix(name, ".") {
			continue
		}
		seq, data, err := profio.ReadCheckpointLog(path)
		if err != nil {
			if errors.Is(err, core.ErrCheckpointCorrupt) {
				// Torn or bit-rotted: discard. The session's primary (or
				// another replica) still holds it.
				os.Remove(path)
			}
			continue
		}
		s.byID[strings.TrimSuffix(name, ckptFileExt)] = &ckptEntry{seq: seq, data: bytes.Clone(data), log: profio.NewCheckpointLog(path)}
	}
	return s, nil
}

// put stores a checkpoint if seq is newer than what is held. It returns
// the held sequence and whether the put was accepted. An accepted put keeps
// a copy of data, so the caller may reuse its buffer once put returns.
func (s *ckptStore) put(session string, seq uint64, data []byte) (uint64, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.byID[session]
	if e != nil && e.seq >= seq {
		return e.seq, false, nil
	}
	start := time.Now()
	if e == nil {
		e = &ckptEntry{}
		if s.dir != "" {
			e.log = profio.NewCheckpointLog(s.path(session))
		}
		s.byID[session] = e
	}
	if e.log != nil {
		if err := e.log.Append(seq, data); err != nil {
			if e.data == nil {
				delete(s.byID, session)
			}
			return 0, false, fmt.Errorf("replica: persisting checkpoint: %w", err)
		}
	}
	// The entry's buffer is reused: get hands out copies only.
	e.seq, e.data = seq, append(e.data[:0], data...)
	s.appendUS.Observe(uint64(time.Since(start).Microseconds()))
	return seq, true, nil
}

func (s *ckptStore) get(session string) (uint64, []byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.byID[session]
	if !ok {
		return 0, nil, false
	}
	return e.seq, bytes.Clone(e.data), true
}

func (s *ckptStore) drop(session string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.byID, session)
	if s.dir != "" {
		os.Remove(s.path(session))
	}
}

// sessions lists the held session ids (tests and leak audits).
func (s *ckptStore) sessions() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.byID))
	for id := range s.byID {
		ids = append(ids, id)
	}
	return ids
}

func (s *ckptStore) path(session string) string {
	return filepath.Join(s.dir, session+ckptFileExt)
}
