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
// document. Saving a profile writes a new snapshot containing the updated
// set and then prunes the snapshots it supersedes; because the new
// snapshot is saved first, every blob stays referenced by at least one
// root at every instant — the invariant the crash sweep tests. A snapshot
// holds heads only: the store keeps no version history.
type snapshot struct {
	// Seq orders snapshots: when two snapshots disagree about a session
	// (possible only transiently, between a save and its prune), the higher
	// sequence number wins.
	Seq uint64 `json:"seq"`
	// Sessions maps session ID → profile ID (hex).
	Sessions map[string]string `json:"sessions"`
}

// storedSnapshot is what decodeSnapshot accepts: a snapshot plus the two
// members older builds wrote for version history, each session's save
// time and its superseded versions. They are parsed and discarded, so the
// blobs only they named are garbage for the next GC; any other member is
// refused.
type storedSnapshot struct {
	snapshot
	SavedAt json.RawMessage `json:"saved_at"`
	History json.RawMessage `json:"history"`
}

// snapDoc is a fully decoded snapshot with parsed profile IDs.
type snapDoc struct {
	seq      uint64
	sessions map[string]ID
}

// encodeSnapshot serializes a snapshot; json.Marshal sorts map keys and
// struct fields keep declaration order, so the encoding is canonical and
// the snapshot's name (the hex SHA-256 of these bytes) is deterministic.
func encodeSnapshot(seq uint64, sessions map[string]ID) []byte {
	s := snapshot{Seq: seq, Sessions: make(map[string]string, len(sessions))}
	for id, m := range sessions {
		s.Sessions[id] = m.String()
	}
	data, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	return data
}

// decodeSnapshot parses a snapshot document.
func decodeSnapshot(data []byte) (snapDoc, error) {
	var none snapDoc
	var s storedSnapshot
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return none, fmt.Errorf("repo: corrupt snapshot: %w", err)
	}
	doc := snapDoc{seq: s.Seq, sessions: make(map[string]ID, len(s.Sessions))}
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
