// Package profio serializes profiling results. The original aprof writes
// report files that downstream tooling (aprof-plot) consumes; this package
// plays that role with a stable JSON schema carrying the thread-sensitive
// profiles, every performance point of both metrics, and the run-level
// counters. Calling-context profiles are not serialized: the JSON file is
// the routine-level exchange format; context-sensitive analyses consume
// Profiles in memory.
package profio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"aprof/internal/core"
	"aprof/internal/trace"
)

// fileFormat is bumped on breaking schema changes.
const fileFormat = 1

// pointJSON is one performance point of a cost plot.
type pointJSON struct {
	N     uint64  `json:"n"`
	Count uint64  `json:"count"`
	Max   uint64  `json:"max"`
	Min   uint64  `json:"min"`
	Sum   uint64  `json:"sum"`
	SumSq float64 `json:"sumsq"`
}

// profileJSON is one thread-sensitive routine profile.
type profileJSON struct {
	Routine         string      `json:"routine"`
	Thread          int32       `json:"thread"`
	Calls           uint64      `json:"calls"`
	SumRMS          uint64      `json:"sum_rms"`
	SumDRMS         uint64      `json:"sum_drms"`
	FirstReads      uint64      `json:"first_reads"`
	InducedThread   uint64      `json:"induced_thread"`
	InducedExternal uint64      `json:"induced_external"`
	TotalCost       uint64      `json:"total_cost"`
	DRMSPoints      []pointJSON `json:"drms_points"`
	RMSPoints       []pointJSON `json:"rms_points"`
}

// corruptionJSON summarizes decode-layer loss of a lenient streaming run.
// The structured CorruptionError log is diagnostic output, not part of the
// exchange format, so only the counters are serialized.
type corruptionJSON struct {
	FramesDropped int   `json:"frames_dropped,omitempty"`
	EventsDropped int   `json:"events_dropped,omitempty"`
	BytesSkipped  int64 `json:"bytes_skipped,omitempty"`
	Truncated     bool  `json:"truncated,omitempty"`
}

// fileJSON is the on-disk document. The drops and corruption objects are
// omitted entirely on clean runs, so documents written before the
// fault-tolerance layer and documents of strict runs are byte-identical to
// the previous schema (the format number stays 1). readJSON decodes it
// through these types; Marshal and Write (encode.go) write the same members
// by hand, and readCanonical (decode.go) reads them back the same way.
type fileJSON struct {
	Format       int             `json:"format"`
	Generator    string          `json:"generator"`
	Events       int             `json:"events"`
	Renumberings int             `json:"renumberings"`
	Drops        *core.DropStats `json:"drops,omitempty"`
	Corruption   *corruptionJSON `json:"corruption,omitempty"`
	Profiles     []profileJSON   `json:"profiles"`
}

// pointsFromJSON builds a cost plot from its points, one CostStats block
// for the whole plot.
func pointsFromJSON(points []pointJSON) (map[uint64]*core.CostStats, error) {
	out := make(map[uint64]*core.CostStats, len(points))
	stats := make([]core.CostStats, len(points))
	for i, p := range points {
		if _, dup := out[p.N]; dup {
			return nil, fmt.Errorf("profio: duplicate point at n=%d", p.N)
		}
		stats[i] = core.CostStats{Count: p.Count, Max: p.Max, Min: p.Min, Sum: p.Sum, SumSq: p.SumSq}
		out[p.N] = &stats[i]
	}
	return out, nil
}

// Read deserializes profiles written by Write. It reads r to EOF. A
// document in exactly the layout Marshal writes is decoded in one pass over
// its bytes (decode.go); any other input goes through encoding/json, which
// decodes the first JSON value in it and ignores what follows.
func Read(r io.Reader) (*core.Profiles, error) {
	buf := readBufs.Get().(*bytes.Buffer)
	defer readBufs.Put(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("profio: decoding: %w", err)
	}
	if ps := readCanonical(buf.Bytes()); ps != nil {
		return ps, nil
	}
	return readJSON(buf.Bytes())
}

// readBufs holds Read's input buffers, so that reading a document does not
// grow a new buffer to its size each time. Neither decoder retains the
// bytes it is given.
var readBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readJSON decodes data reflectively through encoding/json. It reads every
// document Read accepts and is the reference the one-pass decoder is tested
// against (FuzzReadProfiles).
func readJSON(data []byte) (*core.Profiles, error) {
	var doc fileJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("profio: decoding: %w", err)
	}
	if doc.Format != fileFormat {
		return nil, fmt.Errorf("profio: unsupported format %d (want %d)", doc.Format, fileFormat)
	}
	ps := &core.Profiles{
		Symbols:      trace.NewSymbolTable(),
		ByKey:        make(map[core.Key]*core.Profile, len(doc.Profiles)),
		Events:       doc.Events,
		Renumberings: doc.Renumberings,
	}
	if doc.Drops != nil {
		ps.Drops = *doc.Drops
	}
	if doc.Corruption != nil {
		ps.Corruption = trace.CorruptionStats{
			FramesDropped: doc.Corruption.FramesDropped,
			EventsDropped: doc.Corruption.EventsDropped,
			BytesSkipped:  doc.Corruption.BytesSkipped,
			Truncated:     doc.Corruption.Truncated,
		}
	}
	for i, pj := range doc.Profiles {
		id := ps.Symbols.Intern(pj.Routine)
		key := core.Key{Routine: id, Thread: trace.ThreadID(pj.Thread)}
		if _, dup := ps.ByKey[key]; dup {
			return nil, fmt.Errorf("profio: profile %d: duplicate (routine %q, thread %d)", i, pj.Routine, pj.Thread)
		}
		drms, err := pointsFromJSON(pj.DRMSPoints)
		if err != nil {
			return nil, fmt.Errorf("profio: profile %q/%d: %w", pj.Routine, pj.Thread, err)
		}
		rms, err := pointsFromJSON(pj.RMSPoints)
		if err != nil {
			return nil, fmt.Errorf("profio: profile %q/%d: %w", pj.Routine, pj.Thread, err)
		}
		ps.ByKey[key] = &core.Profile{
			Routine:         id,
			Thread:          trace.ThreadID(pj.Thread),
			Calls:           pj.Calls,
			SumRMS:          pj.SumRMS,
			SumDRMS:         pj.SumDRMS,
			FirstReads:      pj.FirstReads,
			InducedThread:   pj.InducedThread,
			InducedExternal: pj.InducedExternal,
			TotalCost:       pj.TotalCost,
			DRMSPoints:      drms,
			RMSPoints:       rms,
		}
	}
	return ps, nil
}
