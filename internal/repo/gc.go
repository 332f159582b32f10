package repo

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"aprof/internal/repo/backend"
)

// GCStats summarizes one garbage-collection pass.
type GCStats struct {
	// Snapshots and Sessions are the root population at mark time.
	Snapshots int
	Sessions  int
	// BlobsLive / BytesLive survive; BlobsFreed / BytesFreed were
	// unreferenced and are gone when GC returns.
	BlobsLive  int
	BytesLive  int64
	BlobsFreed int
	BytesFreed int64
	// BlobsMoved were live blobs rewritten out of partially-live packs.
	BlobsMoved int
	// PacksDeleted counts packs removed (fully dead or repacked away);
	// PacksWritten counts the replacement packs.
	PacksDeleted int
	PacksWritten int
	// Elapsed is the wall time of the pass.
	Elapsed time.Duration
}

func (s GCStats) String() string {
	return fmt.Sprintf("gc: %d roots, %d sessions; freed %d blobs (%d bytes), moved %d, packs -%d/+%d, live %d blobs (%d bytes), %v",
		s.Snapshots, s.Sessions, s.BlobsFreed, s.BytesFreed, s.BlobsMoved, s.PacksDeleted, s.PacksWritten, s.BlobsLive, s.BytesLive, s.Elapsed.Round(time.Millisecond))
}

// GC removes every blob no root references — the superseded profiles of
// re-saved sessions among them, so only each session's head survives:
// fully dead packs are deleted, partially live packs are rewritten to hold
// only their live blobs, and the index cache is refreshed.
//
// Crash safety: the pass is mark (read-only), then save replacement packs,
// then delete old packs. A kill before the saves loses nothing; a kill
// between a save and the deletes leaves live blobs stored twice (the index
// keeps one, the next GC drops the rest); a kill mid-delete leaves some
// dead packs for the next pass. At no point is a referenced blob in no
// saved pack.
func (r *Repository) GC() (GCStats, error) {
	r.lockWrite()
	defer r.unlockWrite()
	start := time.Now()
	var stats GCStats

	if err := r.flushLocked(); err != nil {
		return stats, err
	}
	live, err := r.markLiveLocked()
	if err != nil {
		return stats, fmt.Errorf("repo: gc mark: %w", err)
	}
	stats.Snapshots = len(r.snaps)
	stats.Sessions = len(r.sessions)

	// Partition every pack into keep / delete / repack.
	byPack := make(map[string][]IndexBlob)
	for _, p := range r.ix.toIndexPacks() {
		byPack[p.Name] = p.Blobs
	}
	packNames := make([]string, 0, len(byPack))
	for name := range byPack {
		packNames = append(packNames, name)
	}
	sort.Strings(packNames)

	var doomed []string   // packs to delete after repacking
	var moved []IndexBlob // live blobs to rewrite
	movedFrom := make(map[ID]string)
	for _, name := range packNames {
		blobs := byPack[name]
		liveHere := 0
		for _, b := range blobs {
			if _, ok := live[b.ID]; ok {
				liveHere++
			}
		}
		switch {
		case liveHere == len(blobs):
			continue // fully live: keep as is
		case liveHere == 0:
			doomed = append(doomed, name)
			for _, b := range blobs {
				stats.BlobsFreed++
				stats.BytesFreed += int64(b.Length)
			}
		default:
			doomed = append(doomed, name)
			for _, b := range blobs {
				if _, ok := live[b.ID]; ok {
					moved = append(moved, b)
					movedFrom[b.ID] = name
				} else {
					stats.BlobsFreed++
					stats.BytesFreed += int64(b.Length)
				}
			}
		}
	}

	// Delete damaged packs quarantined at open before anything is written:
	// they hold no indexed blobs (nothing referenced is served from them),
	// and — because packs are content-addressed — a replacement pack
	// written below could land on the SAME name a torn pack occupies
	// (identical live blobs encode to identical bytes). Removing the
	// wreckage first makes that collision a clean overwrite, not a
	// delete-after-rewrite data loss.
	for _, name := range r.damaged {
		if _, indexed := byPack[name]; indexed {
			continue // name resurrected by a completed save; not wreckage
		}
		if err := r.be.Remove(backend.Handle{Type: backend.PackType, Name: name}); err != nil && !errors.Is(err, backend.ErrNotFound) {
			return stats, err
		}
		stats.PacksDeleted++
		r.m.packsDeleted.Inc()
	}
	r.damaged = nil

	// Torn snapshot files quarantined at open get the same treatment: they
	// are not roots, so they hold nothing live, and a later snapshot of
	// identical content would reuse their name (skip those — the torn file
	// was overwritten by a completed save).
	for _, name := range r.damagedSnaps {
		if _, ok := r.snaps[name]; ok {
			continue
		}
		if err := r.be.Remove(backend.Handle{Type: backend.SnapshotType, Name: name}); err != nil && !errors.Is(err, backend.ErrNotFound) {
			return stats, err
		}
	}
	r.damagedSnaps = nil

	// Rewrite the live remnants of partially-live packs into fresh packs,
	// batching up to the normal pack target size.
	var batch []Blob
	var batchBytes int
	flushBatch := func() error {
		if len(batch) == 0 {
			return nil
		}
		// overwrite: the moved blobs' index entries still point at the
		// doomed packs; the replacement pack must take precedence before
		// the old packs go away.
		if _, err := r.savePackOverwriteLocked(batch); err != nil {
			return err
		}
		stats.PacksWritten++
		batch, batchBytes = nil, 0
		return nil
	}
	for _, b := range moved {
		data, err := r.loadBlobLocked(b.ID)
		if err != nil {
			return stats, fmt.Errorf("repo: gc repack of %s (pack %s): %w", b.ID.Short(), movedFrom[b.ID][:8], err)
		}
		batch = append(batch, Blob{Type: b.Type, ID: b.ID, Data: append([]byte(nil), data...)})
		batchBytes += int(b.Length)
		stats.BlobsMoved++
		if batchBytes >= packTargetSize {
			if err := flushBatch(); err != nil {
				return stats, err
			}
		}
	}
	if err := flushBatch(); err != nil {
		return stats, err
	}

	// Every live blob now has a home outside the doomed packs; delete them.
	for _, name := range doomed {
		if err := r.be.Remove(backend.Handle{Type: backend.PackType, Name: name}); err != nil && !errors.Is(err, backend.ErrNotFound) {
			return stats, err
		}
		r.ix.dropPack(name)
		r.packCacheInvalidate(name)
		stats.PacksDeleted++
		r.m.packsDeleted.Inc()
	}

	if err := r.writeIndexCacheLocked(); err != nil {
		return stats, err
	}

	stats.BlobsLive = len(r.ix.blobs)
	liveBytes, _ := r.updateByteGauges(live)
	stats.BytesLive = liveBytes
	r.updateGauges()
	stats.Elapsed = time.Since(start)
	r.m.gcRuns.Inc()
	r.m.gcLatency.Observe(sinceMicros(start))
	return stats, nil
}

// packCacheInvalidate drops the one-entry pack cache if it holds a
// deleted pack.
func (r *Repository) packCacheInvalidate(name string) {
	if r.packCacheName == name {
		r.packCacheName, r.packCacheData = "", nil
	}
}
