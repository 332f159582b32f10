package core

// The gob envelope of checkpoint versions 1–3, kept as the oracle of the
// version-4 append encoder: both describe the same state, so decoding what
// the append encoder wrote must give, field for field, what a gob round
// trip of the old envelope gives.

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"sort"
	"testing"

	"aprof/internal/trace"
)

func dumpPoints(points map[uint64]*CostStats) []ckptPoint {
	out := make([]ckptPoint, 0, len(points))
	for n, st := range points {
		out = append(out, ckptPoint{
			N: n, Count: st.Count, Max: st.Max, Min: st.Min, Sum: st.Sum, SumSq: st.SumSq,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].N < out[j].N })
	return out
}

// dumpThreadsCkpt serializes thread states sorted by thread id.
func dumpThreadsCkpt(threads map[trace.ThreadID]*threadState) []ckptThread {
	states := make([]*threadState, 0, len(threads))
	for _, t := range threads {
		states = append(states, t)
	}
	sort.Slice(states, func(i, j int) bool { return states[i].id < states[j].id })
	out := make([]ckptThread, 0, len(states))
	for _, t := range states {
		ct := ckptThread{ID: int32(t.id), Cost: t.cost, Overflow: t.overflow}
		for i := range t.stack {
			f := &t.stack[i]
			ct.Stack = append(ct.Stack, ckptFrame{
				Rtn: uint32(f.rtn), TS: f.ts, EntryCost: f.entryCost,
				First: f.first, IndThread: f.indThread, IndExternal: f.indExternal, RMS: f.rms,
			})
		}
		out = append(out, ct)
	}
	return out
}

// dumpProfilesCkpt serializes profiles sorted by (routine, thread).
func dumpProfilesCkpt(byKey map[Key]*Profile) []ckptProfile {
	keys := make([]Key, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Routine != keys[j].Routine {
			return keys[i].Routine < keys[j].Routine
		}
		return keys[i].Thread < keys[j].Thread
	})
	out := make([]ckptProfile, 0, len(keys))
	for _, k := range keys {
		prof := byKey[k]
		out = append(out, ckptProfile{
			Routine: uint32(k.Routine), Thread: int32(k.Thread),
			Calls: prof.Calls, SumRMS: prof.SumRMS, SumDRMS: prof.SumDRMS,
			FirstReads: prof.FirstReads, InducedThread: prof.InducedThread,
			InducedExternal: prof.InducedExternal, TotalCost: prof.TotalCost,
			MaxPoints: prof.maxPoints, DRMSShift: prof.drmsShift, RMSShift: prof.rmsShift,
			DRMS: dumpPoints(prof.DRMSPoints), RMS: dumpPoints(prof.RMSPoints),
		})
	}
	return out
}

// gobEnvelope builds the old envelope of p's state and sends it through a
// gob encoder and decoder.
func gobEnvelope(t *testing.T, p *Profiler, stream StreamState) checkpointData {
	t.Helper()
	data := checkpointData{
		Cfg:            fingerprint(p.cfg),
		Count:          p.count,
		Symbols:        p.syms.Names(),
		Threads:        dumpThreadsCkpt(p.threads),
		Profiles:       dumpProfilesCkpt(p.out.ByKey),
		Events:         p.out.Events,
		Renumberings:   p.out.Renumberings,
		Drops:          p.out.Drops,
		MemSeq:         p.memSeq,
		MemStride:      p.memStride,
		NextEventCheck: p.nextEventCheck,
		Stream:         stream,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&data); err != nil {
		t.Fatal(err)
	}
	var out checkpointData
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEnvelopeMatchesGobOracle checkpoints random traces under every
// configuration the round-trip test covers, at several cut points, with a
// stream position carrying corruption accounting, and requires the decoded
// version-4 envelope to equal the gob round trip field for field.
func TestEnvelopeMatchesGobOracle(t *testing.T) {
	configs := map[string]Config{
		"default":  DefaultConfig(),
		"rms-only": RMSOnlyConfig(),
		"renumber": {ThreadInput: true, ExternalInput: true, CounterLimit: 200},
		"capped":   {ThreadInput: true, ExternalInput: true, MaxPointsPerProfile: 4},
		"faulty":   {ThreadInput: true, ExternalInput: true, FaultPolicy: FaultCount},
		"limited": {ThreadInput: true, ExternalInput: true, FaultPolicy: FaultCount,
			Limits: Limits{MaxDepth: 6, MaxEvents: 100, MaxMemoryBytes: 1 << 20}},
	}
	streams := []StreamState{
		{},
		{EventsDelivered: 1 << 40, Corruption: trace.CorruptionStats{
			FramesDropped: 3, EventsDropped: 70, BytesSkipped: 1 << 33, Truncated: true,
			Errors: []*trace.CorruptionError{
				{Offset: 12, Frame: 1, Reason: "crc mismatch"},
				{Offset: -1, Frame: 0, Reason: ""},
			},
		}},
	}
	for name, cfg := range configs {
		tr := trace.Random(RandomTraceConfig(name))
		for _, frac := range []int{0, 1, 3, 7, 8} {
			n := len(tr.Events) * frac / 8
			p := NewProfiler(tr.Symbols, cfg)
			for i := 0; i < n; i++ {
				if err := p.HandleEvent(&tr.Events[i]); err != nil {
					t.Fatal(err)
				}
			}
			for _, st := range streams {
				doc, err := p.Checkpoint(st)
				if err != nil {
					t.Fatal(err)
				}
				got, err := readCheckpoint(bytes.NewReader(doc))
				if err != nil {
					t.Fatalf("%s, cut %d: %v", name, n, err)
				}
				if want := gobEnvelope(t, p, st); !reflect.DeepEqual(got.data, want) {
					t.Fatalf("%s, cut %d: version-4 envelope\n%+v\ndiffers from the gob round trip\n%+v", name, n, got.data, want)
				}
			}
		}
	}
}
