package profio

import (
	"encoding/json"
	"io"
	"sort"

	"aprof/internal/core"
)

// referenceWrite is the reflective writer Write replaced: it builds the
// fileJSON document and lets encoding/json marshal and indent it. It is the
// oracle that Marshal must match byte for byte (TestWriteMatchesReference,
// FuzzReadProfiles).
func referenceWrite(w io.Writer, ps *core.Profiles) error {
	doc := fileJSON{
		Format:       fileFormat,
		Generator:    "aprof-drms",
		Events:       ps.Events,
		Renumberings: ps.Renumberings,
	}
	if !ps.Drops.IsZero() {
		drops := ps.Drops
		doc.Drops = &drops
	}
	if c := ps.Corruption; c.FramesDropped != 0 || c.EventsDropped != 0 || c.BytesSkipped != 0 || c.Truncated {
		doc.Corruption = &corruptionJSON{
			FramesDropped: c.FramesDropped,
			EventsDropped: c.EventsDropped,
			BytesSkipped:  c.BytesSkipped,
			Truncated:     c.Truncated,
		}
	}
	keys := make([]core.Key, 0, len(ps.ByKey))
	for k := range ps.ByKey {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		ni, nj := ps.Symbols.Name(keys[i].Routine), ps.Symbols.Name(keys[j].Routine)
		if ni != nj {
			return ni < nj
		}
		return keys[i].Thread < keys[j].Thread
	})
	for _, k := range keys {
		p := ps.ByKey[k]
		doc.Profiles = append(doc.Profiles, profileJSON{
			Routine:         ps.Symbols.Name(k.Routine),
			Thread:          int32(k.Thread),
			Calls:           p.Calls,
			SumRMS:          p.SumRMS,
			SumDRMS:         p.SumDRMS,
			FirstReads:      p.FirstReads,
			InducedThread:   p.InducedThread,
			InducedExternal: p.InducedExternal,
			TotalCost:       p.TotalCost,
			DRMSPoints:      pointsToJSON(p.DRMSPoints),
			RMSPoints:       pointsToJSON(p.RMSPoints),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

func pointsToJSON(points map[uint64]*core.CostStats) []pointJSON {
	out := make([]pointJSON, 0, len(points))
	for n, st := range points {
		out = append(out, pointJSON{
			N: n, Count: st.Count, Max: st.Max, Min: st.Min, Sum: st.Sum, SumSq: st.SumSq,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].N < out[j].N })
	return out
}
