// Package repo implements a content-addressed, deduplicated, checksummed
// repository for profile documents — the durability layer beneath aprofd.
//
// Each profile document is stored whole, as one blob addressed by the
// SHA-256 of its bytes, so saving the same document twice stores it once.
// Blobs live inside immutable, CRC-checksummed pack files (pack.go); an
// in-memory index locates every blob and is rebuilt from pack headers
// whenever its cached form is missing or stale (index.go); and snapshot
// documents are the GC roots that make a result set durable
// (snapshot.go). Storage goes exclusively through the narrow
// backend.Backend interface, so the local directory layout, an object
// store, or a fault-injecting test double are interchangeable.
//
// Write ordering is the crash-safety story: blobs are packed and saved
// before any snapshot referencing them exists, new snapshots are saved
// before the ones they supersede are pruned, and GC saves repacked blobs
// before deleting the packs they came from. Every object write is atomic
// (backend contract), so a kill at any instant leaves a repository where
// every snapshot-referenced blob is present — at worst with some
// unreferenced garbage that the next GC collects.
package repo

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"aprof/internal/obs"
	"aprof/internal/repo/backend"
)

// ObsScopeRepo is the repository's metric scope: dedup hit rates, pack
// population, live/dead byte gauges, and GC latency.
const ObsScopeRepo = "repo"

// ErrNotRepository reports an Open of a location with no config document.
var ErrNotRepository = errors.New("repo: not a repository (missing config; run init)")

// ErrProfileNotFound reports a lookup of an unknown profile ID or session.
var ErrProfileNotFound = errors.New("repo: profile not found")

// repoVersion is the config document version this code reads and writes.
// Version 1 stores split profiles into content-defined chunks reassembled
// by manifest blobs; version 2 stores each profile as one blob. Nothing
// migrates: Open and Sync refuse any other version.
const repoVersion = 2

// ErrUnsupportedVersion reports a store whose config names a version
// other than repoVersion.
var ErrUnsupportedVersion = errors.New("repo: unsupported store version")

// config is the repository's root document.
type config struct {
	Version int `json:"version"`
}

// checkConfig loads be's config document and refuses any store this code
// cannot read.
func checkConfig(be backend.Backend) error {
	raw, err := be.Load(backend.Handle{Type: backend.ConfigType, Name: "config"})
	if errors.Is(err, backend.ErrNotFound) {
		return ErrNotRepository
	}
	if err != nil {
		return err
	}
	var cfg config
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return fmt.Errorf("repo: corrupt config: %w", err)
	}
	if cfg.Version != repoVersion {
		return fmt.Errorf("%w: the store is version %d, this build reads only version %d (whole-profile blobs); nothing migrates",
			ErrUnsupportedVersion, cfg.Version, repoVersion)
	}
	return nil
}

type repoMetrics struct {
	blobsWritten *obs.Counter
	blobsDeduped *obs.Counter
	bytesWritten *obs.Counter
	bytesDeduped *obs.Counter
	packsWritten *obs.Counter
	packsDeleted *obs.Counter
	snapsWritten *obs.Counter
	gcRuns       *obs.Counter
	gcLatency    *obs.Histogram
	packCount    *obs.Gauge
	blobCount    *obs.Gauge
	liveBytes    *obs.Gauge
	deadBytes    *obs.Gauge
	sessions     *obs.Gauge
}

func newRepoMetrics(reg *obs.Registry) repoMetrics {
	s := reg.Scope(ObsScopeRepo)
	return repoMetrics{
		blobsWritten: s.Counter("blobs_written"),
		blobsDeduped: s.Counter("blobs_deduped"),
		bytesWritten: s.Counter("bytes_written"),
		bytesDeduped: s.Counter("bytes_deduped"),
		packsWritten: s.Counter("packs_written"),
		packsDeleted: s.Counter("packs_deleted"),
		snapsWritten: s.Counter("snapshots_written"),
		gcRuns:       s.Counter("gc_runs"),
		gcLatency:    s.Histogram("gc_us"),
		packCount:    s.Gauge("pack_count"),
		blobCount:    s.Gauge("blob_count"),
		liveBytes:    s.Gauge("live_bytes"),
		deadBytes:    s.Gauge("dead_bytes"),
		sessions:     s.Gauge("sessions"),
	}
}

// Options configures Open.
type Options struct {
	// Obs receives repository metrics under scope "repo" (nil disables).
	Obs *obs.Registry
	// Logf logs recoverable anomalies, e.g. a damaged pack skipped on open
	// (nil discards).
	Logf func(format string, args ...any)
}

// Repository is an open profile store. All methods are safe for
// concurrent use.
type Repository struct {
	be   backend.Backend
	opts Options
	m    repoMetrics

	// wmu serializes the operations that change the store; mu guards the
	// state below. A writer holds wmu for its whole operation and mu while
	// it touches state, but drops mu around its backend writes (see
	// unlockedIO): they are fsynced, and reads, which take mu only, would
	// otherwise queue behind them. Only wmu holders change the state
	// (readers refill the pack cache, nothing else), so what a writer read
	// before a write still holds after it, and a reader sees the state from
	// before the write — staged blobs stay in pending until their pack is
	// indexed, and the session view changes only once the root is saved.
	wmu sync.Mutex
	mu  sync.Mutex
	ix  *index
	// pending is the pack under construction: blobs staged but not yet
	// saved. Readable through Get, persisted by flush.
	pending      []Blob
	pendingIDs   map[ID]struct{}
	pendingBytes int
	// snaps holds every snapshot root by name; sessions is the merged
	// head view (highest seq wins per session).
	snaps    map[string]snapDoc
	sessions map[string]ID
	maxSeq   uint64
	// damagedSnaps lists snapshot files whose content does not hash to
	// their name — torn writes made visible by a non-atomic backend. They
	// are never honored as roots and are deleted by the next GC.
	damagedSnaps []string
	// damaged lists packs that failed to decode on open. Their blobs are
	// not served; Check reports whether anything referenced lived there.
	damaged []string
	// packCache holds the bytes of the most recently loaded pack (see
	// loadPackLocked).
	packCacheName string
	packCacheData []byte
}

// Init creates a new repository behind be. It refuses a location that
// already holds one.
func Init(be backend.Backend) error {
	h := backend.Handle{Type: backend.ConfigType, Name: "config"}
	if _, err := be.Load(h); err == nil {
		return errors.New("repo: already initialized")
	} else if !errors.Is(err, backend.ErrNotFound) {
		return err
	}
	data, err := json.Marshal(config{Version: repoVersion})
	if err != nil {
		return err
	}
	return be.Save(h, data)
}

// Open loads the repository behind be: config, snapshots, and the blob
// index (from the cached index file when it exactly matches the pack set,
// from a full pack-header scan otherwise).
func Open(be backend.Backend, opts Options) (*Repository, error) {
	if err := checkConfig(be); err != nil {
		return nil, err
	}

	r := &Repository{
		be:         be,
		opts:       opts,
		m:          newRepoMetrics(opts.Obs),
		pendingIDs: make(map[ID]struct{}),
		snaps:      make(map[string]snapDoc),
		sessions:   make(map[string]ID),
	}
	if err := r.loadIndex(); err != nil {
		return nil, err
	}
	if err := r.loadSnapshots(); err != nil {
		return nil, err
	}
	r.updateGauges()
	return r, nil
}

// OpenOrInit opens the repository, initializing an empty location first.
func OpenOrInit(be backend.Backend, opts Options) (*Repository, error) {
	r, err := Open(be, opts)
	if errors.Is(err, ErrNotRepository) {
		if err := Init(be); err != nil {
			return nil, err
		}
		return Open(be, opts)
	}
	return r, err
}

func (r *Repository) logf(format string, args ...any) {
	if r.opts.Logf != nil {
		r.opts.Logf(format, args...)
	}
}

// loadIndex populates r.ix, preferring a cached index file that covers
// exactly the pack set present; anything else falls back to scanning
// every pack header.
func (r *Repository) loadIndex() error {
	packNames, err := r.be.List(backend.PackType)
	if err != nil {
		return err
	}
	if ix, ok := r.loadIndexCache(packNames); ok {
		r.ix = ix
		return nil
	}
	r.ix = newIndex()
	for _, name := range packNames {
		data, err := r.be.Load(backend.Handle{Type: backend.PackType, Name: name})
		if err != nil {
			return err
		}
		entries, derr := decodePackHeader(data)
		if derr != nil {
			// A damaged pack cannot be served; quarantine it rather than
			// failing the whole store open. Check reports whether any
			// referenced blob lived there.
			r.damaged = append(r.damaged, name)
			r.logf("repo: skipping damaged pack %s: %v", name, derr)
			continue
		}
		r.ix.addPack(name, entries, false)
	}
	return nil
}

// loadIndexCache tries each cached index file (normally at most one) and
// returns the first whose covered pack set equals packNames exactly.
func (r *Repository) loadIndexCache(packNames []string) (*index, bool) {
	names, err := r.be.List(backend.IndexType)
	if err != nil || len(names) == 0 {
		return nil, false
	}
	want := make(map[string]struct{}, len(packNames))
	for _, n := range packNames {
		want[n] = struct{}{}
	}
	for _, name := range names {
		data, err := r.be.Load(backend.Handle{Type: backend.IndexType, Name: name})
		if err != nil {
			continue
		}
		packs, derr := DecodeIndex(data)
		if derr != nil {
			r.logf("repo: ignoring corrupt index cache %s: %v", name, derr)
			continue
		}
		if len(packs) != len(want) {
			continue
		}
		stale := false
		for _, p := range packs {
			if _, ok := want[p.Name]; !ok {
				stale = true
				break
			}
		}
		if stale {
			continue
		}
		return fromIndexPacks(packs), true
	}
	return nil, false
}

// loadSnapshots reads every snapshot root and builds the merged session
// view. Snapshots are content-addressed, so a torn write is detectable:
// the file's hash no longer matches its name. Such wreckage is quarantined
// (it was never acknowledged — the save that produced it failed). A
// snapshot whose content DOES match its name but fails to decode is real
// corruption and fails the open: guessing at roots risks GC deleting live
// data.
func (r *Repository) loadSnapshots() error {
	names, err := r.be.List(backend.SnapshotType)
	if err != nil {
		return err
	}
	for _, name := range names {
		data, err := r.be.Load(backend.Handle{Type: backend.SnapshotType, Name: name})
		if err != nil {
			return err
		}
		if IDOf(data).String() != name {
			r.damagedSnaps = append(r.damagedSnaps, name)
			r.logf("repo: skipping torn snapshot %s", name)
			continue
		}
		doc, derr := decodeSnapshot(data)
		if derr != nil {
			return fmt.Errorf("repo: snapshot %s: %w", name, derr)
		}
		r.snaps[name] = doc
		if doc.seq > r.maxSeq {
			r.maxSeq = doc.seq
		}
	}
	r.rebuildSessionView()
	return nil
}

// rebuildSessionView recomputes the merged head view from all roots: the
// root with the highest seq supplies a session's head.
func (r *Repository) rebuildSessionView() {
	r.sessions = make(map[string]ID)
	winner := make(map[string]uint64)
	for _, s := range r.snaps {
		for sid, mid := range s.sessions {
			if seq, ok := winner[sid]; !ok || s.seq > seq {
				winner[sid] = s.seq
				r.sessions[sid] = mid
			}
		}
	}
}

// sessionSeqs returns, per session, the seq of the root that supplies its
// head — the tiebreaker anti-entropy sync merges against.
func (r *Repository) sessionSeqsLocked() map[string]uint64 {
	winner := make(map[string]uint64)
	for _, s := range r.snaps {
		for sid := range s.sessions {
			if seq, ok := winner[sid]; !ok || s.seq > seq {
				winner[sid] = s.seq
			}
		}
	}
	return winner
}

// Put stores a profile document, returning its ID: the SHA-256 of the
// document. A document already stored or staged in the pending pack is
// deduplicated, not re-stored. The data is readable through Get
// immediately, but only durable once a flush happens (Snapshot,
// SaveProfile, Flush, and Close all flush).
func (r *Repository) Put(data []byte) (ID, error) {
	id := IDOf(data) // hashed before any lock is taken
	r.lockWrite()
	defer r.unlockWrite()
	return id, r.putLocked(id, data)
}

func (r *Repository) putLocked(id ID, data []byte) error {
	r.stageLocked(id, data)
	return r.maybeFlushLocked()
}

// lockWrite takes both locks for an operation that changes the store.
func (r *Repository) lockWrite() {
	r.wmu.Lock()
	r.mu.Lock()
}

func (r *Repository) unlockWrite() {
	r.mu.Unlock()
	r.wmu.Unlock()
}

// unlockedIO runs fn — a backend write and the encoding around it — with
// mu released; the caller holds wmu and mu. fn may read state that only
// wmu holders change (pending, for a flush) and must change none.
func (r *Repository) unlockedIO(fn func() error) error {
	r.mu.Unlock()
	defer r.mu.Lock()
	return fn()
}

// stageLocked adds one profile blob to the pending pack unless it is
// already stored or staged (the dedup hit path).
func (r *Repository) stageLocked(id ID, data []byte) {
	if _, ok := r.pendingIDs[id]; ok {
		r.m.blobsDeduped.Inc()
		r.m.bytesDeduped.Add(uint64(len(data)))
		return
	}
	if r.ix.has(id) {
		r.m.blobsDeduped.Inc()
		r.m.bytesDeduped.Add(uint64(len(data)))
		return
	}
	owned := append([]byte(nil), data...)
	r.pending = append(r.pending, Blob{Type: BlobProfile, ID: id, Data: owned})
	r.pendingIDs[id] = struct{}{}
	r.pendingBytes += len(owned)
	r.m.blobsWritten.Inc()
	r.m.bytesWritten.Add(uint64(len(owned)))
}

// storedLocked reports whether a blob is stored or staged, so a root may
// reference it.
func (r *Repository) storedLocked(id ID) bool {
	_, staged := r.pendingIDs[id]
	return staged || r.ix.has(id)
}

// maybeFlushLocked seals the pending pack once it crosses the target size.
func (r *Repository) maybeFlushLocked() error {
	if r.pendingBytes < packTargetSize {
		return nil
	}
	return r.flushLocked()
}

// Flush persists the pending pack (a no-op when nothing is staged).
func (r *Repository) Flush() error {
	r.lockWrite()
	defer r.unlockWrite()
	return r.flushLocked()
}

func (r *Repository) flushLocked() error {
	if len(r.pending) == 0 {
		return nil
	}
	if _, err := r.savePackLocked(r.pending); err != nil {
		return err
	}
	r.pending = nil
	r.pendingIDs = make(map[ID]struct{})
	r.pendingBytes = 0
	r.updateGauges()
	return nil
}

// savePackLocked encodes blobs into a pack, saves it under its content
// hash, and indexes its entries (first-seen location wins).
func (r *Repository) savePackLocked(blobs []Blob) (string, error) {
	return r.savePack(blobs, false)
}

// savePackOverwriteLocked is savePackLocked with the new pack's locations
// taking precedence over existing index entries — the GC repack path.
func (r *Repository) savePackOverwriteLocked(blobs []Blob) (string, error) {
	return r.savePack(blobs, true)
}

func (r *Repository) savePack(blobs []Blob, overwrite bool) (string, error) {
	var name string
	var entries []packEntry
	err := r.unlockedIO(func() error {
		data := EncodePack(blobs)
		name = IDOf(data).String()
		if err := r.be.Save(backend.Handle{Type: backend.PackType, Name: name}, data); err != nil {
			return err
		}
		var err error
		entries, err = decodePackHeader(data) // cannot fail: we just encoded it
		return err
	})
	if err != nil {
		return "", err
	}
	r.ix.addPack(name, entries, overwrite)
	r.m.packsWritten.Inc()
	return name, nil
}

// Get returns a copy of a stored profile by ID.
func (r *Repository) Get(id ID) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.getLocked(id)
}

// getLocked copies the profile out: the blob aliases the pending pack or
// the pack cache, which callers must not be able to change.
func (r *Repository) getLocked(id ID) ([]byte, error) {
	data, err := r.loadBlobLocked(id)
	if err != nil {
		return nil, err
	}
	return bytes.Clone(data), nil
}

// loadBlobLocked fetches one blob by ID, from the pending pack or from a
// saved pack. Every pack read is verified: the blob's bytes must hash
// back to its ID, so a torn or tampered pack is never served. The result
// aliases the pending pack or the pack cache.
func (r *Repository) loadBlobLocked(id ID) ([]byte, error) {
	if _, ok := r.pendingIDs[id]; ok {
		for i := range r.pending {
			if r.pending[i].ID == id {
				return r.pending[i].Data, nil
			}
		}
	}
	e, ok := r.ix.lookup(id)
	if !ok {
		return nil, fmt.Errorf("%w: blob %s", ErrProfileNotFound, id.Short())
	}
	pack, err := r.loadPackLocked(e.pack)
	if err != nil {
		return nil, err
	}
	if int64(e.offset)+int64(e.length) > int64(len(pack)) {
		return nil, packCorrupt("pack %s: blob %s out of bounds", e.pack[:8], id.Short())
	}
	data := pack[e.offset : e.offset+e.length]
	if IDOf(data) != id {
		return nil, packCorrupt("pack %s: blob %s failed verification", e.pack[:8], id.Short())
	}
	return data, nil
}

// loadPackLocked reads a pack's bytes, with a one-entry cache for repeated
// reads of one pack: a session read again, or GC moving the live blobs of
// a pack.
func (r *Repository) loadPackLocked(name string) ([]byte, error) {
	if r.packCacheName == name {
		return r.packCacheData, nil
	}
	data, err := r.be.Load(backend.Handle{Type: backend.PackType, Name: name})
	if err != nil {
		return nil, err
	}
	r.packCacheName, r.packCacheData = name, data
	return data, nil
}

// SnapshotInfo describes one root.
type SnapshotInfo struct {
	Name     string
	Seq      uint64
	Sessions map[string]ID
}

// Snapshot makes the given session → profile ID set a durable root: it
// flushes pending blobs, verifies every referenced profile is stored, and
// saves a new snapshot document. It returns the snapshot's name.
func (r *Repository) Snapshot(sessions map[string]ID) (string, error) {
	r.lockWrite()
	defer r.unlockWrite()
	return r.snapshotLocked(sessions)
}

func (r *Repository) snapshotLocked(sessions map[string]ID) (string, error) {
	if err := r.flushLocked(); err != nil {
		return "", err
	}
	for sid, mid := range sessions {
		if !r.ix.has(mid) {
			return "", fmt.Errorf("repo: snapshot references unknown profile %s (session %q)", mid.Short(), sid)
		}
	}
	seq := r.maxSeq + 1
	var name string
	err := r.unlockedIO(func() error {
		data := encodeSnapshot(seq, sessions)
		name = IDOf(data).String()
		return r.be.Save(backend.Handle{Type: backend.SnapshotType, Name: name}, data)
	})
	if err != nil {
		return "", err
	}
	r.maxSeq = seq
	r.snaps[name] = snapDoc{seq: seq, sessions: cloneSessions(sessions)}
	r.rebuildSessionView()
	r.m.snapsWritten.Inc()
	r.updateGauges()
	return name, nil
}

// Forget removes a snapshot root. The blobs it referenced stay stored
// until a GC finds them unreferenced.
func (r *Repository) Forget(name string) error {
	r.lockWrite()
	defer r.unlockWrite()
	if _, ok := r.snaps[name]; !ok {
		return fmt.Errorf("%w: snapshot %s", ErrProfileNotFound, name)
	}
	if err := r.be.Remove(backend.Handle{Type: backend.SnapshotType, Name: name}); err != nil && !errors.Is(err, backend.ErrNotFound) {
		return err
	}
	delete(r.snaps, name)
	r.rebuildSessionView()
	r.updateGauges()
	return nil
}

// SaveProfile stores a session's profile document and makes it durable in
// one step: put, snapshot the updated head result set, and prune the
// snapshots the new one supersedes. When SaveProfile returns nil the
// profile survives any crash.
//
// A re-save replaces the session's head; the superseded profile is
// referenced by no root and is garbage for the next GC.
func (r *Repository) SaveProfile(sessionID string, profile []byte) error {
	if sessionID == "" {
		return errors.New("repo: empty session id")
	}
	mid := IDOf(profile) // hashed before any lock is taken
	r.lockWrite()
	defer r.unlockWrite()
	if err := r.putLocked(mid, profile); err != nil {
		return err
	}
	if cur, ok := r.sessions[sessionID]; ok && cur == mid && len(r.snaps) == 1 {
		return nil // identical re-save of the head state: nothing to do
	}
	next := cloneSessions(r.sessions)
	next[sessionID] = mid
	newName, err := r.snapshotLocked(next)
	if err != nil {
		return err
	}
	// The new snapshot holds the full head set, so every other root is
	// redundant.
	if err := r.pruneRootsLocked(newName); err != nil {
		return err
	}
	r.updateGauges()
	return nil
}

// pruneRootsLocked removes every root but keep, which holds the full head
// set and so supersedes them. A crash mid-prune leaves extra roots, which
// only hold more blobs live — never fewer. The session view needs no
// rebuild: snapshotLocked built it when keep, the newest root, was written,
// and keep supplies every session's head.
func (r *Repository) pruneRootsLocked(keep string) error {
	for name := range r.snaps {
		if name == keep {
			continue
		}
		err := r.unlockedIO(func() error {
			return r.be.Remove(backend.Handle{Type: backend.SnapshotType, Name: name})
		})
		if err != nil && !errors.Is(err, backend.ErrNotFound) {
			return err
		}
		delete(r.snaps, name)
	}
	return nil
}

// Sessions returns the merged head view: session ID → profile ID.
func (r *Repository) Sessions() map[string]ID {
	r.mu.Lock()
	defer r.mu.Unlock()
	return cloneSessions(r.sessions)
}

// SessionIDs returns the stored session IDs in lexical order.
func (r *Repository) SessionIDs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return sortedSessionIDs(r.sessions)
}

// GetSession returns a copy of a session's profile document.
func (r *Repository) GetSession(sessionID string) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	mid, ok := r.sessions[sessionID]
	if !ok {
		return nil, fmt.Errorf("%w: session %q", ErrProfileNotFound, sessionID)
	}
	return r.getLocked(mid)
}

// Snapshots lists every root, sorted by (seq, name).
func (r *Repository) Snapshots() []SnapshotInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SnapshotInfo, 0, len(r.snaps))
	for name, s := range r.snaps {
		out = append(out, SnapshotInfo{Name: name, Seq: s.seq, Sessions: cloneSessions(s.sessions)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seq != out[j].Seq {
			return out[i].Seq < out[j].Seq
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// DamagedPacks lists packs that failed to decode when the store was
// opened (their blobs are quarantined, never served).
func (r *Repository) DamagedPacks() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.damaged...)
}

// Close flushes pending blobs and writes the index cache. The repository
// stays usable (Close is idempotent); callers that only read may skip it.
func (r *Repository) Close() error {
	r.lockWrite()
	defer r.unlockWrite()
	if err := r.flushLocked(); err != nil {
		return err
	}
	return r.writeIndexCacheLocked()
}

// writeIndexCacheLocked saves the current index under its content hash
// and removes older cache files. Pure optimization: failures only cost
// the next open a pack-header scan.
func (r *Repository) writeIndexCacheLocked() error {
	data := EncodeIndex(r.ix.toIndexPacks())
	name := IDOf(data).String()
	if err := r.be.Save(backend.Handle{Type: backend.IndexType, Name: name}, data); err != nil {
		return err
	}
	if names, err := r.be.List(backend.IndexType); err == nil {
		for _, n := range names {
			if n == name {
				continue
			}
			if err := r.be.Remove(backend.Handle{Type: backend.IndexType, Name: n}); err != nil && !errors.Is(err, backend.ErrNotFound) {
				// A stale cache file costs the next open nothing (staleness
				// detection skips it), but a failing Remove means the backend
				// is sick — surface that rather than hiding it.
				return err
			}
		}
	}
	return nil
}

// markLiveLocked walks every root and returns the set of live blob IDs.
// It fails — rather than guessing — when a referenced profile is neither
// stored nor staged.
func (r *Repository) markLiveLocked() (map[ID]struct{}, error) {
	live := make(map[ID]struct{})
	for name, s := range r.snaps {
		for sid, mid := range s.sessions {
			if !r.storedLocked(mid) {
				return nil, fmt.Errorf("repo: snapshot %s session %q: %w: blob %s", name[:8], sid, ErrProfileNotFound, mid.Short())
			}
			live[mid] = struct{}{}
		}
	}
	return live, nil
}

// updateGauges refreshes the cheap population gauges. The live/dead byte
// gauges need a full mark pass, so only GC and Stats refresh those.
func (r *Repository) updateGauges() {
	r.m.packCount.Set(int64(len(r.ix.packs)))
	r.m.blobCount.Set(int64(len(r.ix.blobs)))
	r.m.sessions.Set(int64(len(r.sessions)))
}

// updateByteGauges splits stored bytes into live and dead given a
// completed mark pass.
func (r *Repository) updateByteGauges(live map[ID]struct{}) (liveBytes, deadBytes int64) {
	for id, e := range r.ix.blobs {
		if _, ok := live[id]; ok {
			liveBytes += int64(e.length)
		} else {
			deadBytes += int64(e.length)
		}
	}
	r.m.liveBytes.Set(liveBytes)
	r.m.deadBytes.Set(deadBytes)
	return liveBytes, deadBytes
}

func cloneSessions(m map[string]ID) map[string]ID {
	out := make(map[string]ID, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// sinceMicros measures a duration in microseconds for the GC histogram.
func sinceMicros(start time.Time) uint64 {
	us := time.Since(start).Microseconds()
	if us < 0 {
		return 0
	}
	return uint64(us)
}
