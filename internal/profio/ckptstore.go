package profio

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
)

// A CheckpointStore is an aprofd node's one checkpoint store: it holds the
// checkpoints of the sessions the node serves and, on a replicating node,
// the replicas it stores on behalf of its peers alike, keyed by session id
// with a monotonic sequence number (the checkpoint's delivered-event
// count). Puts with a sequence at or below the stored one are rejected as
// stale: a delayed push from a primary that has since failed over can
// never roll a copy backwards.
//
// With a directory configured, every accepted checkpoint is appended to the
// session's CheckpointLog, <dir>/<session>.rck, and is durable before the
// put returns; the logs are reloaded on open, so a restarted node still
// serves the checkpoints it had confirmed. A log without an intact record —
// a torn write, bit rot, or a file of the pre-log RCK1 format — is
// discarded on open, and so is the temp file a crash inside a log
// replacement leaves behind.
//
// Each session has its own lock, held across its append and the fsync, so
// one session's put never waits on another session's disk.
type CheckpointStore struct {
	dir string
	// appendUS times each accepted put: the log append and its fsync.
	appendUS *obs.Histogram

	mu   sync.Mutex
	byID map[string]*storeEntry
}

type storeEntry struct {
	mu   sync.Mutex
	held bool // a checkpoint is stored: seq and data are valid
	seq  uint64
	data []byte
	log  *CheckpointLog // nil without a directory
	// removed is set, under mu, when the entry leaves the store; a caller
	// that locked it after that looks the session up again.
	removed bool
}

// checkpointStoreExt is the file extension of the store's logs.
const checkpointStoreExt = ".rck"

// OpenCheckpointStore opens the store over dir, creating the directory and
// reloading the logs in it; an empty dir keeps checkpoints in memory only.
// Each accepted put is observed in appendUS and each log discarded on open
// is counted in discarded (both may be nil). When the directory cannot be
// created or read, the error comes with a store all the same, holding
// nothing: its puts fail for as long as the directory cannot be written,
// so it never accepts a checkpoint it did not make durable.
func OpenCheckpointStore(dir string, appendUS *obs.Histogram, discarded *obs.Counter) (*CheckpointStore, error) {
	s := &CheckpointStore{dir: dir, appendUS: appendUS, byID: make(map[string]*storeEntry)}
	if dir == "" {
		return s, nil
	}
	err := os.MkdirAll(dir, 0o755)
	var entries []os.DirEntry
	if err == nil {
		entries, err = os.ReadDir(dir)
	}
	if err != nil {
		return s, fmt.Errorf("profio: checkpoint store: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		path := filepath.Join(dir, name)
		if strayCheckpointTemp(name) {
			os.Remove(path)
		}
		if e.IsDir() || !strings.HasSuffix(name, checkpointStoreExt) || strings.HasPrefix(name, ".") {
			continue
		}
		seq, data, err := ReadCheckpointLog(path)
		if err != nil {
			if errors.Is(err, core.ErrCheckpointCorrupt) {
				// Torn or bit-rotted: discard. On a replicating node the
				// session's primary or another replica still holds it.
				os.Remove(path)
				discarded.Inc()
			}
			continue
		}
		s.byID[strings.TrimSuffix(name, checkpointStoreExt)] = &storeEntry{
			held: true, seq: seq, data: bytes.Clone(data), log: NewCheckpointLog(path),
		}
	}
	return s, nil
}

// lock returns the session's entry, created if absent, with its lock held.
func (s *CheckpointStore) lock(session string) *storeEntry {
	for {
		s.mu.Lock()
		e := s.byID[session]
		if e == nil {
			e = &storeEntry{}
			if s.dir != "" {
				e.log = NewCheckpointLog(s.path(session))
			}
			s.byID[session] = e
		}
		s.mu.Unlock()
		e.mu.Lock()
		if !e.removed {
			return e
		}
		e.mu.Unlock()
	}
}

// unlock releases a locked entry, removing it from the store first when it
// holds no checkpoint.
func (s *CheckpointStore) unlock(session string, e *storeEntry) {
	if !e.held {
		e.removed = true
		s.mu.Lock()
		delete(s.byID, session)
		s.mu.Unlock()
	}
	e.mu.Unlock()
}

// Put stores a checkpoint if seq is newer than what is held. It returns
// the held sequence and whether the put was accepted. An accepted put keeps
// a copy of data, so the caller may reuse its buffer once Put returns.
func (s *CheckpointStore) Put(session string, seq uint64, data []byte) (uint64, bool, error) {
	e := s.lock(session)
	defer s.unlock(session, e)
	if e.held && e.seq >= seq {
		return e.seq, false, nil
	}
	start := time.Now()
	if e.log != nil {
		if err := e.log.Append(seq, data); err != nil {
			return 0, false, fmt.Errorf("profio: persisting checkpoint: %w", err)
		}
	}
	// The entry's buffer is reused: Get hands out copies only.
	e.held, e.seq, e.data = true, seq, append(e.data[:0], data...)
	s.appendUS.Observe(uint64(time.Since(start).Microseconds()))
	return seq, true, nil
}

// Get returns a copy of the session's checkpoint and its sequence.
func (s *CheckpointStore) Get(session string) (uint64, []byte, bool) {
	e := s.lock(session)
	defer s.unlock(session, e)
	if !e.held {
		return 0, nil, false
	}
	return e.seq, bytes.Clone(e.data), true
}

// Drop removes the session's checkpoint, from disk too.
func (s *CheckpointStore) Drop(session string) {
	e := s.lock(session)
	defer s.unlock(session, e)
	e.held, e.data = false, nil
	if s.dir != "" {
		os.Remove(s.path(session))
	}
}

func (s *CheckpointStore) path(session string) string {
	return filepath.Join(s.dir, session+checkpointStoreExt)
}

// strayCheckpointTemp reports whether a directory entry is the temp file a
// crash left behind inside backend.WriteAtomic while it replaced one of the
// store's logs: ".<log name>.tmp<digits>". Log files themselves end in
// checkpointStoreExt, so no log name matches.
func strayCheckpointTemp(name string) bool {
	i := strings.LastIndex(name, ".tmp")
	if !strings.HasPrefix(name, ".") || i < 1 || !strings.HasSuffix(name[:i], checkpointStoreExt) {
		return false
	}
	digits := name[i+len(".tmp"):]
	return digits != "" && strings.Trim(digits, "0123456789") == ""
}
