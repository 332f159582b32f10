package replica

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"aprof/internal/core"
	"aprof/internal/profio"
)

// ckptStore holds the checkpoint replicas this node stores on behalf of
// its peers, keyed by session id with a monotonic sequence number (the
// checkpoint's delivered-event count). Puts with a sequence at or below
// the stored one are rejected as stale: a delayed push from a primary
// that has since failed over can never roll a replica backwards.
//
// With a directory configured, every accepted replica is appended to the
// session's checkpoint log (profio.CheckpointLog, <dir>/<session>.rck) and
// is durable before the put is confirmed; the logs are reloaded on open, so
// a restarted node still serves the replicas it had confirmed. A log
// without an intact record — a torn write, bit rot, or a file of the
// pre-log RCK1 format — is discarded on reload, and so is the temp file a
// crash inside a log replacement leaves behind.
type ckptStore struct {
	dir string

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

func openCkptStore(dir string) (*ckptStore, error) {
	s := &ckptStore{dir: dir, byID: make(map[string]*ckptEntry)}
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

// put stores a replica if seq is newer than what is held. It returns the
// held sequence and whether the put was accepted. An accepted put keeps
// data itself (each request arrives in a fresh buffer), so the caller must
// not change it afterwards.
func (s *ckptStore) put(session string, seq uint64, data []byte) (uint64, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.byID[session]
	if e != nil && e.seq >= seq {
		return e.seq, false, nil
	}
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
	e.seq, e.data = seq, data
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
