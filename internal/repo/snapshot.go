package repo

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// A snapshot is a GC root: one immutable record of a complete result set,
// mapping session IDs to profile IDs — the SHA-256 of each whole profile
// document, still named "manifest" in the JSON and in Version. Saving a
// profile writes a new snapshot containing the updated set and then prunes
// the snapshots it supersedes; because the new snapshot is saved first,
// every blob stays referenced by at least one root at every instant — the
// invariant the crash sweep tests.
//
// Beyond the head set, a snapshot optionally retains per-session history:
// the profiles a session's head superseded, newest first, each with the
// time it was the head. History entries are GC roots too — that is what
// retention policies richer than keep-latest-head trim against.
type snapshot struct {
	// Seq orders snapshots: when two snapshots disagree about a session
	// (possible only transiently, between a save and its prune), the higher
	// sequence number wins.
	Seq uint64 `json:"seq"`
	// Sessions maps session ID → profile ID (hex).
	Sessions map[string]string `json:"sessions"`
	// SavedAt maps session ID → the Unix time its head profile was saved
	// (absent for sessions saved before timestamps existed).
	SavedAt map[string]int64 `json:"saved_at,omitempty"`
	// History maps session ID → superseded versions, newest first.
	History map[string][]histEntry `json:"history,omitempty"`
}

// histEntry is one retained superseded version of a session.
type histEntry struct {
	Manifest string `json:"manifest"`
	SavedAt  int64  `json:"saved_at"`
}

// snapDoc is a fully decoded snapshot with parsed profile IDs.
type snapDoc struct {
	seq      uint64
	sessions map[string]ID
	savedAt  map[string]int64
	history  map[string][]histEntry
}

// encodeSnapshot serializes a snapshot; json.Marshal sorts map keys and
// struct fields keep declaration order, so the encoding is canonical and
// the snapshot's name (the hex SHA-256 of these bytes) is deterministic.
// Empty savedAt/history maps are omitted entirely, so stores that never
// use retention produce byte-identical snapshots to the pre-history
// format.
func encodeSnapshot(seq uint64, sessions map[string]ID, savedAt map[string]int64, history map[string][]histEntry) []byte {
	s := snapshot{Seq: seq, Sessions: make(map[string]string, len(sessions))}
	for id, m := range sessions {
		s.Sessions[id] = m.String()
	}
	if len(savedAt) > 0 {
		s.SavedAt = savedAt
	}
	for sid, entries := range history {
		if len(entries) == 0 {
			continue
		}
		if s.History == nil {
			s.History = make(map[string][]histEntry)
		}
		s.History[sid] = sortedHistory(entries)
	}
	data, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	return data
}

// sortedHistory returns entries in canonical order — newest first, ties
// broken by profile ID hex — with duplicate profiles dropped (first wins).
func sortedHistory(entries []histEntry) []histEntry {
	out := append([]histEntry(nil), entries...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].SavedAt != out[j].SavedAt {
			return out[i].SavedAt > out[j].SavedAt
		}
		return out[i].Manifest < out[j].Manifest
	})
	seen := make(map[string]struct{}, len(out))
	dedup := out[:0]
	for _, e := range out {
		if _, ok := seen[e.Manifest]; ok {
			continue
		}
		seen[e.Manifest] = struct{}{}
		dedup = append(dedup, e)
	}
	return dedup
}

// decodeSnapshot parses a snapshot document.
func decodeSnapshot(data []byte) (snapDoc, error) {
	var none snapDoc
	var s snapshot
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return none, fmt.Errorf("repo: corrupt snapshot: %w", err)
	}
	doc := snapDoc{
		seq:      s.Seq,
		sessions: make(map[string]ID, len(s.Sessions)),
		savedAt:  s.SavedAt,
	}
	for sid, mhex := range s.Sessions {
		if strings.TrimSpace(sid) == "" {
			return none, fmt.Errorf("repo: corrupt snapshot: empty session id")
		}
		id, perr := ParseID(mhex)
		if perr != nil {
			return none, fmt.Errorf("repo: corrupt snapshot: session %q: %w", sid, perr)
		}
		doc.sessions[sid] = id
	}
	for sid, entries := range s.History {
		if _, ok := doc.sessions[sid]; !ok {
			return none, fmt.Errorf("repo: corrupt snapshot: history for unknown session %q", sid)
		}
		for _, e := range entries {
			if _, perr := ParseID(e.Manifest); perr != nil {
				return none, fmt.Errorf("repo: corrupt snapshot: history of %q: %w", sid, perr)
			}
		}
		if doc.history == nil {
			doc.history = make(map[string][]histEntry)
		}
		doc.history[sid] = entries
	}
	return doc, nil
}

// sortedSessionIDs returns a session map's keys in lexical order.
func sortedSessionIDs(sessions map[string]ID) []string {
	ids := make([]string, 0, len(sessions))
	for id := range sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
