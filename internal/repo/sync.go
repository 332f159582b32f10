package repo

import (
	"fmt"
	"sort"

	"aprof/internal/repo/backend"
)

// SyncStats summarizes one anti-entropy pass against a peer store.
type SyncStats struct {
	// PacksPulled / BytesPulled count packs copied from the remote because
	// they held blobs this store lacked; PacksSkipped counts remote packs
	// whose blobs were all already present (the index-diff fast path).
	PacksPulled  int
	BytesPulled  int64
	PacksSkipped int
	// SnapshotsScanned counts remote roots examined.
	SnapshotsScanned int
	// SessionsAdopted are sessions this store did not have; SessionsUpdated
	// had a head superseded by the remote's (the losing head is dropped,
	// garbage for the next GC); SessionsSkipped were unresolvable — a blob
	// they need was not pullable this round (the remote GC'd or lost it
	// mid-transfer) and will be retried next round.
	SessionsAdopted int
	SessionsUpdated int
	SessionsSkipped int
	// RootWritten reports whether the merge changed this store's view and
	// a new local root was saved.
	RootWritten bool
}

func (s SyncStats) String() string {
	return fmt.Sprintf("sync: pulled %d packs (%d bytes, %d skipped), %d roots scanned; sessions +%d adopted, %d updated, %d skipped, root written: %v",
		s.PacksPulled, s.BytesPulled, s.PacksSkipped, s.SnapshotsScanned,
		s.SessionsAdopted, s.SessionsUpdated, s.SessionsSkipped, s.RootWritten)
}

// Sync pulls everything the remote store has that this one lacks: missing
// packs first (blobs before any root that references them — the same
// crash-safe ordering every other write path uses), then the remote's
// session heads, merged into this store's view under a deterministic rule
// and made durable in one new local root.
//
// Sync is pull-only — the remote is never written — which is what makes
// cluster-wide anti-entropy idempotent and crash-safe: each node mutates
// only its own store, a sync killed at any instant leaves at worst
// unreferenced pulled packs (the next GC collects them), and re-running
// converges because content addressing makes every transfer repeatable.
// Two nodes syncing from each other reach the same session view: the
// merge rule (higher snapshot seq wins; ties break toward the
// lexically greater profile ID) is symmetric, and each side drops the
// losing head. Heads can diverge only through a reused session id: a
// failover re-run of one trace yields a byte-identical profile.
//
// The remote's config is read first, and a remote this code cannot read
// (another store version, or no store at all) is refused with the error
// Open gives, before any pack is pulled.
//
// A partition or remote loss mid-pull degrades, never corrupts: sessions
// whose blobs could not all be fetched are skipped this round and retried
// the next, and every pulled object is verified against its content
// address before it is stored.
//
// The remote is typically a backend.Peer over APRR, but any Backend works
// — including a local directory, which makes disk-to-disk store merges a
// one-call operation.
func (r *Repository) Sync(remote backend.Backend) (SyncStats, error) {
	var stats SyncStats
	if err := checkConfig(remote); err != nil {
		return stats, fmt.Errorf("repo: sync: remote: %w", err)
	}

	// Phase A (locked, brief): flush staged blobs and snapshot the local
	// have-sets. Concurrent saves during the network phases are safe: a
	// blob that arrives twice dedups at integration time.
	r.lockWrite()
	if err := r.flushLocked(); err != nil {
		r.unlockWrite()
		return stats, err
	}
	havePacks := make(map[string]struct{})
	for _, name := range r.ix.packNames() {
		havePacks[name] = struct{}{}
	}
	haveBlob := make(map[ID]struct{}, len(r.ix.blobs))
	for id := range r.ix.blobs {
		haveBlob[id] = struct{}{}
	}
	r.unlockWrite()

	// Phase B (unlocked): diff pack sets and pull what is missing.
	if err := r.syncPacks(remote, havePacks, haveBlob, &stats); err != nil {
		return stats, err
	}

	// Phase C (unlocked): read the remote's roots.
	docs, err := r.syncReadRoots(remote, &stats)
	if err != nil {
		return stats, err
	}

	// Phase D (locked): merge the remote view into ours and, if anything
	// changed, write one new root holding the merged set.
	r.lockWrite()
	defer r.unlockWrite()
	return stats, r.syncMergeLocked(docs, &stats)
}

// syncPacks pulls every remote pack holding at least one blob this store
// lacks. When the remote publishes a fresh index cache (covering exactly
// its pack set — the same staleness rule the local open uses), the diff
// runs on the index and fully-duplicated packs are skipped without
// transferring a byte; otherwise every missing pack is pulled and its
// surplus blobs simply dedup.
func (r *Repository) syncPacks(remote backend.Backend, havePacks map[string]struct{}, haveBlob map[ID]struct{}, stats *SyncStats) error {
	remotePacks, err := remote.List(backend.PackType)
	if err != nil {
		return fmt.Errorf("repo: sync: listing remote packs: %w", err)
	}
	var missing []string
	for _, name := range remotePacks {
		if _, ok := havePacks[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if len(missing) == 0 {
		return nil
	}

	wanted := r.syncWantedPacks(remote, remotePacks, missing, haveBlob)
	for _, name := range missing {
		if !wanted[name] {
			stats.PacksSkipped++
			continue
		}
		data, err := remote.Load(backend.Handle{Type: backend.PackType, Name: name})
		if err != nil {
			// The remote GC'd it between list and load, or the link died.
			// Roots needing its blobs are skipped below; next round retries.
			r.logf("repo: sync: pack %s: %v", short(name), err)
			continue
		}
		if IDOf(data).String() != name {
			r.logf("repo: sync: pack %s arrived corrupt (content does not match name), discarded", short(name))
			continue
		}
		entries, derr := decodePackHeader(data)
		if derr != nil {
			r.logf("repo: sync: pack %s undecodable: %v", short(name), derr)
			continue
		}
		r.lockWrite()
		// Saving is idempotent — content addressing means a concurrent local
		// write of the same name wrote the same bytes.
		err = r.unlockedIO(func() error {
			return r.be.Save(backend.Handle{Type: backend.PackType, Name: name}, data)
		})
		if err != nil {
			r.unlockWrite()
			return fmt.Errorf("repo: sync: storing pack %s: %w", short(name), err)
		}
		r.ix.addPack(name, entries, false)
		r.m.packsWritten.Inc()
		r.updateGauges()
		r.unlockWrite()
		stats.PacksPulled++
		stats.BytesPulled += int64(len(data))
	}
	return nil
}

// syncWantedPacks decides which missing remote packs actually hold new
// blobs, via the remote's index cache when one exactly covers its pack
// set. Without a usable cache every missing pack is wanted.
func (r *Repository) syncWantedPacks(remote backend.Backend, remotePacks, missing []string, haveBlob map[ID]struct{}) map[string]bool {
	wanted := make(map[string]bool, len(missing))
	for _, name := range missing {
		wanted[name] = true
	}
	names, err := remote.List(backend.IndexType)
	if err != nil || len(names) == 0 {
		return wanted
	}
	want := make(map[string]struct{}, len(remotePacks))
	for _, n := range remotePacks {
		want[n] = struct{}{}
	}
	for _, name := range names {
		data, err := remote.Load(backend.Handle{Type: backend.IndexType, Name: name})
		if err != nil {
			continue
		}
		packs, derr := DecodeIndex(data)
		if derr != nil || len(packs) != len(want) {
			continue
		}
		covered := true
		for _, p := range packs {
			if _, ok := want[p.Name]; !ok {
				covered = false
				break
			}
		}
		if !covered {
			continue
		}
		// Exact cover: trust the diff. A pack is unwanted only when every
		// blob in it is already held locally.
		for _, p := range packs {
			if !wanted[p.Name] {
				continue
			}
			novel := false
			for _, b := range p.Blobs {
				if _, ok := haveBlob[b.ID]; !ok {
					novel = true
					break
				}
			}
			wanted[p.Name] = novel
		}
		return wanted
	}
	return wanted
}

// syncReadRoots fetches and verifies the remote's snapshot roots.
func (r *Repository) syncReadRoots(remote backend.Backend, stats *SyncStats) ([]snapDoc, error) {
	names, err := remote.List(backend.SnapshotType)
	if err != nil {
		return nil, fmt.Errorf("repo: sync: listing remote snapshots: %w", err)
	}
	var docs []snapDoc
	for _, name := range names {
		data, err := remote.Load(backend.Handle{Type: backend.SnapshotType, Name: name})
		if err != nil {
			r.logf("repo: sync: snapshot %s: %v", short(name), err)
			continue
		}
		if IDOf(data).String() != name {
			// Torn on the remote: never acknowledged there, not honored here.
			r.logf("repo: sync: skipping torn remote snapshot %s", short(name))
			continue
		}
		doc, derr := decodeSnapshot(data)
		if derr != nil {
			r.logf("repo: sync: remote snapshot %s: %v", short(name), derr)
			continue
		}
		docs = append(docs, doc)
		stats.SnapshotsScanned++
	}
	return docs, nil
}

// syncMergeLocked merges remote roots into the local view and persists
// the result as one new root when anything changed.
func (r *Repository) syncMergeLocked(docs []snapDoc, stats *SyncStats) error {
	next := cloneSessions(r.sessions)
	localSeq := r.sessionSeqsLocked()

	// Deterministic doc order so skip accounting is stable.
	sort.Slice(docs, func(i, j int) bool { return docs[i].seq < docs[j].seq })
	for _, doc := range docs {
		for _, sid := range sortedSessionIDs(doc.sessions) {
			mid := doc.sessions[sid]
			cur, exists := next[sid]
			if exists && cur == mid {
				continue
			}
			// Conflict rule, symmetric so both sides converge: higher root
			// seq wins; on a tie the lexically greater profile hex does.
			if exists {
				ls, rs := localSeq[sid], doc.seq
				if rs < ls || (rs == ls && mid.String() <= cur.String()) {
					continue // ours wins; theirs is dropped
				}
			}
			if !r.storedLocked(mid) {
				stats.SessionsSkipped++
				r.logf("repo: sync: session %q not yet resolvable locally, retrying next round", sid)
				continue
			}
			if exists {
				stats.SessionsUpdated++
			} else {
				stats.SessionsAdopted++
			}
			next[sid] = mid
			localSeq[sid] = doc.seq
		}
	}

	if sessionsEqual(next, r.sessions) {
		return nil // already converged: nothing to write
	}
	newName, err := r.snapshotLocked(next)
	if err != nil {
		return fmt.Errorf("repo: sync: writing merged root: %w", err)
	}
	stats.RootWritten = true
	if err := r.pruneRootsLocked(newName); err != nil {
		return err
	}
	r.updateGauges()
	return nil
}

func sessionsEqual(a, b map[string]ID) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}
