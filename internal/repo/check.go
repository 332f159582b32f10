package repo

import (
	"fmt"

	"aprof/internal/repo/backend"
)

// CheckReport is the result of a full store verification.
type CheckReport struct {
	Packs     int
	Blobs     int
	Snapshots int
	Sessions  int
	// Errors are integrity violations: a referenced blob that cannot be
	// served, a pack whose contents fail verification, a corrupt root.
	Errors []string
	// Warnings are recoverable anomalies: a stale or corrupt index cache,
	// an unreferenced damaged pack. The store still serves everything.
	Warnings []string
}

// OK reports whether the store passed verification.
func (c *CheckReport) OK() bool { return len(c.Errors) == 0 }

func (c *CheckReport) errorf(format string, args ...any) {
	c.Errors = append(c.Errors, fmt.Sprintf(format, args...))
}

func (c *CheckReport) warnf(format string, args ...any) {
	c.Warnings = append(c.Warnings, fmt.Sprintf(format, args...))
}

// Check verifies the whole store from the backend up, trusting nothing
// in memory: it re-reads and fully verifies every pack (framing, header
// CRC, every blob's CRC-32 and SHA-256), re-reads every snapshot, and
// proves every referenced profile is servable from a verified pack. The
// in-memory index is not consulted — Check is what the crash sweep runs
// against a freshly killed store.
func (r *Repository) Check() *CheckReport {
	r.lockWrite() // no write in flight: Check reads the backend, not the state
	defer r.unlockWrite()
	report := &CheckReport{}

	// Verify every pack and build an independent blob map.
	verified := make(map[ID]struct{})
	packNames, err := r.be.List(backend.PackType)
	if err != nil {
		report.errorf("listing packs: %v", err)
		return report
	}
	for _, name := range packNames {
		data, err := r.be.Load(backend.Handle{Type: backend.PackType, Name: name})
		if err != nil {
			report.errorf("pack %s: %v", short(name), err)
			continue
		}
		if IDOf(data).String() != name {
			// Damaged (torn, tampered) packs are quarantined, never served.
			// They become an error only if something referenced lived there,
			// which the root walk below reports as a missing blob.
			report.warnf("pack %s: file content does not match its name", short(name))
			continue
		}
		blobs, derr := DecodePack(data)
		if derr != nil {
			report.warnf("pack %s: %v", short(name), derr)
			continue
		}
		report.Packs++
		for _, b := range blobs {
			verified[b.ID] = struct{}{}
			report.Blobs++
		}
	}

	// Walk every root and prove its closure is servable.
	snapNames, err := r.be.List(backend.SnapshotType)
	if err != nil {
		report.errorf("listing snapshots: %v", err)
		return report
	}
	sessions := make(map[string]struct{})
	for _, name := range snapNames {
		data, err := r.be.Load(backend.Handle{Type: backend.SnapshotType, Name: name})
		if err != nil {
			report.errorf("snapshot %s: %v", short(name), err)
			continue
		}
		if IDOf(data).String() != name {
			// Torn write: never acknowledged, never honored as a root.
			report.warnf("snapshot %s: file content does not match its name", short(name))
			continue
		}
		doc, derr := decodeSnapshot(data)
		if derr != nil {
			report.errorf("snapshot %s: %v", short(name), derr)
			continue
		}
		report.Snapshots++
		for sid, mid := range doc.sessions {
			sessions[sid] = struct{}{}
			if _, ok := verified[mid]; !ok {
				report.errorf("snapshot %s session %q: profile %s missing", short(name), sid, mid.Short())
				continue
			}
			if _, err := r.loadVerifiedBlob(mid); err != nil {
				report.errorf("snapshot %s session %q: profile %s: %v", short(name), sid, mid.Short(), err)
			}
		}
	}
	report.Sessions = len(sessions)

	// The index cache is only a cache, but a stale one is worth a warning.
	if ixNames, err := r.be.List(backend.IndexType); err == nil {
		for _, name := range ixNames {
			data, err := r.be.Load(backend.Handle{Type: backend.IndexType, Name: name})
			if err != nil {
				report.warnf("index cache %s: %v", short(name), err)
				continue
			}
			if _, derr := DecodeIndex(data); derr != nil {
				report.warnf("index cache %s: %v (will be rebuilt from pack headers)", short(name), derr)
			}
		}
	}
	return report
}

// loadVerifiedBlob reads one blob through the normal (index + verify)
// path; Check uses it only for blobs the independent pack scan already
// proved present, so a failure here is an index/pack disagreement.
func (r *Repository) loadVerifiedBlob(id ID) ([]byte, error) {
	e, ok := r.ix.lookup(id)
	if !ok {
		// Present in a pack but absent from the in-memory index: reachable
		// after reopen, so not a loss — but serve it via a pack scan.
		return r.scanForBlob(id)
	}
	pack, err := r.loadPackLocked(e.pack)
	if err != nil {
		return nil, err
	}
	if int64(e.offset)+int64(e.length) > int64(len(pack)) {
		return nil, packCorrupt("pack %s: blob %s out of bounds", short(e.pack), id.Short())
	}
	data := pack[e.offset : e.offset+e.length]
	if IDOf(data) != id {
		return nil, packCorrupt("pack %s: blob %s failed verification", short(e.pack), id.Short())
	}
	return data, nil
}

// scanForBlob finds a blob by scanning pack headers — the slow path for
// blobs the index does not know (possible only mid-Check on a store whose
// index predates a concurrent write, or when verifying a foreign pack).
func (r *Repository) scanForBlob(id ID) ([]byte, error) {
	names, err := r.be.List(backend.PackType)
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		data, err := r.be.Load(backend.Handle{Type: backend.PackType, Name: name})
		if err != nil {
			continue
		}
		entries, derr := decodePackHeader(data)
		if derr != nil {
			continue
		}
		for _, e := range entries {
			if e.id == id {
				blob := data[e.offset : e.offset+e.length]
				if IDOf(blob) != id {
					continue
				}
				return blob, nil
			}
		}
	}
	return nil, fmt.Errorf("%w: blob %s", ErrProfileNotFound, id.Short())
}

// StatsReport summarizes the store's population and dedup effectiveness.
type StatsReport struct {
	Packs int
	Blobs int
	// Profiles counts the distinct profile documents the roots reference:
	// the sessions' heads, one blob per document however many share it.
	Profiles     int
	Snapshots    int
	Sessions     int
	StoredBytes  int64 // sum of indexed blob sizes
	LiveBytes    int64 // stored bytes reachable from a root
	DeadBytes    int64 // stored bytes awaiting GC
	LogicalBytes int64 // sum of all sessions' profile sizes (pre-dedup)
	DamagedPacks int
}

// DedupFactor is logical bytes per live stored byte: how many times the
// store would have grown without dedup.
func (s StatsReport) DedupFactor() float64 {
	if s.LiveBytes == 0 {
		return 1
	}
	return float64(s.LogicalBytes) / float64(s.LiveBytes)
}

// Stats computes the store's population and dedup statistics.
func (r *Repository) Stats() (StatsReport, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s StatsReport
	s.Packs = len(r.ix.packs)
	s.Snapshots = len(r.snaps)
	s.Sessions = len(r.sessions)
	s.DamagedPacks = len(r.damaged)
	for _, e := range r.ix.blobs {
		s.Blobs++
		s.StoredBytes += int64(e.length)
	}
	live, err := r.markLiveLocked()
	if err != nil {
		return s, err
	}
	s.Profiles = len(live)
	s.LiveBytes, s.DeadBytes = r.updateByteGauges(live)
	for sid, mid := range r.sessions {
		data, err := r.loadBlobLocked(mid)
		if err != nil {
			return s, fmt.Errorf("session %q: %w", sid, err)
		}
		s.LogicalBytes += int64(len(data))
	}
	return s, nil
}

// short trims an object name for display.
func short(name string) string {
	if len(name) > 8 {
		return name[:8]
	}
	return name
}
