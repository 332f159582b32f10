package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"aprof/internal/shadow"
	"aprof/internal/trace"
)

// runSplit profiles tr feeding the first n events, checkpointing, resuming
// into a fresh profiler, and feeding the rest; it returns the resumed run's
// output.
func runSplit(t *testing.T, tr *trace.Trace, cfg Config, n int) *Profiles {
	t.Helper()
	p := NewProfiler(tr.Symbols, cfg)
	for i := 0; i < n; i++ {
		if err := p.HandleEvent(&tr.Events[i]); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
	}
	var buf bytes.Buffer
	if err := p.WriteCheckpoint(&buf, StreamState{EventsDelivered: uint64(n)}); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	q, state, err := ResumeProfiler(&buf, cfg)
	if err != nil {
		t.Fatalf("ResumeProfiler: %v", err)
	}
	if state.EventsDelivered != uint64(n) {
		t.Fatalf("StreamState.EventsDelivered = %d, want %d", state.EventsDelivered, n)
	}
	// Identical chunk counts are what keep every later sampling decision
	// unchanged by a resume: MaxMemoryBytes is checked against
	// liveBytesEstimate, the variant of SpaceBytes that sizes stacks by
	// length (a resumed stack's capacity is not reproduced).
	if got, want := q.liveBytesEstimate(), p.liveBytesEstimate(); got != want {
		t.Fatalf("resumed live-bytes estimate = %d, original %d", got, want)
	}
	if got, want := leafCounts(q), leafCounts(p); !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed leaf chunks %v, original %v", got, want)
	}
	for i := n; i < len(tr.Events); i++ {
		if err := q.HandleEvent(&tr.Events[i]); err != nil {
			t.Fatalf("resumed event %d: %v", i, err)
		}
	}
	ps, err := q.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// leafCounts returns the materialized leaf chunks of every shadow table of
// p, keyed by table ("w", "ts<thread>").
func leafCounts(p *Profiler) map[string]int {
	out := make(map[string]int)
	if p.w != nil {
		out["w"] = p.w.LeafChunks()
	}
	for id, t := range p.threads {
		out[fmt.Sprintf("ts%d", id)] = t.ts.LeafChunks()
	}
	return out
}

// profilesEquivalent compares two Profiles structurally (same package, so
// unexported bucketing state is included via DeepEqual).
func profilesEquivalent(a, b *Profiles) bool {
	if !reflect.DeepEqual(a.Symbols.Names(), b.Symbols.Names()) {
		return false
	}
	if len(a.ByKey) != len(b.ByKey) {
		return false
	}
	for k, pa := range a.ByKey {
		pb := b.ByKey[k]
		if pb == nil || !reflect.DeepEqual(pa, pb) {
			return false
		}
	}
	return a.Events == b.Events && a.Renumberings == b.Renumberings && a.Drops == b.Drops
}

// TestCheckpointRoundTrip checks that checkpointing at several cut points —
// including mid-activation, with frames live on multiple stacks — and
// resuming reproduces the uninterrupted run exactly, across configurations
// covering renumbering, point capping, fault counting, and limits.
func TestCheckpointRoundTrip(t *testing.T) {
	configs := map[string]Config{
		"default":  DefaultConfig(),
		"rms-only": RMSOnlyConfig(),
		"renumber": {ThreadInput: true, ExternalInput: true, CounterLimit: 200},
		"capped":   {ThreadInput: true, ExternalInput: true, MaxPointsPerProfile: 4},
		"faulty":   {ThreadInput: true, ExternalInput: true, FaultPolicy: FaultCount},
		"limited": {ThreadInput: true, ExternalInput: true, FaultPolicy: FaultCount,
			Limits: Limits{MaxDepth: 6, MaxEvents: 100}},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			tr := trace.Random(RandomTraceConfig(name))
			base := cfg
			want, err := Run(tr, base)
			if err != nil {
				t.Fatal(err)
			}
			if name == "renumber" && want.Renumberings == 0 {
				t.Fatal("renumber config never triggered a renumbering: test is vacuous")
			}
			if name == "limited" && want.Drops.Total() == 0 {
				t.Fatal("limited config never dropped: test is vacuous")
			}
			for _, frac := range []int{1, 3, 7} {
				n := len(tr.Events) * frac / 8
				got := runSplit(t, tr, cfg, n)
				if !profilesEquivalent(want, got) {
					t.Errorf("cut at %d/%d events: resumed profiles differ", n, len(tr.Events))
				}
			}
		})
	}
	// Every cut of the crafted boundary traces: checkpoints land between a
	// write and the cross-thread read it induces, between a same-counter
	// kernel/thread write pair, and inside depth-capped subtrees.
	t.Run("every-cut", func(t *testing.T) {
		for name, tc := range map[string]struct {
			tr  *trace.Trace
			cfg Config
		}{
			"handoff":    {handoffTrace(), DefaultConfig()},
			"same-count": {sameCountWrites(), DefaultConfig()},
			"deep-stacks": {deepStacks(), Config{ThreadInput: true, ExternalInput: true,
				Limits: Limits{MaxDepth: 3}}},
		} {
			want, err := Run(tc.tr, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for n := 0; n <= len(tc.tr.Events); n++ {
				if got := runSplit(t, tc.tr, tc.cfg, n); !profilesEquivalent(want, got) {
					t.Errorf("%s: cut at %d/%d events: resumed profiles differ", name, n, len(tc.tr.Events))
				}
			}
		}
	})
}

// RandomTraceConfig derives a deterministic per-config trace seed.
func RandomTraceConfig(name string) trace.RandomConfig {
	var seed int64
	for _, c := range name {
		seed = seed*31 + int64(c)
	}
	return trace.RandomConfig{Seed: seed, Ops: 600, Threads: 3}
}

// TestCheckpointRefusesContextSensitive pins the documented limitation.
func TestCheckpointRefusesContextSensitive(t *testing.T) {
	cfg := Config{ContextSensitive: true}
	p := NewProfiler(trace.NewSymbolTable(), cfg)
	err := p.WriteCheckpoint(&bytes.Buffer{}, StreamState{})
	if err == nil || !strings.Contains(err.Error(), "context-sensitive") {
		t.Errorf("WriteCheckpoint = %v, want context-sensitive refusal", err)
	}
}

// TestCheckpointDetectsCorruption flips one payload byte: the CRC must
// reject the file.
func TestCheckpointDetectsCorruption(t *testing.T) {
	tr := trace.Random(trace.RandomConfig{Seed: 3, Ops: 100})
	p := NewProfiler(tr.Symbols, DefaultConfig())
	for i := range tr.Events {
		if err := p.HandleEvent(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := p.WriteCheckpoint(&buf, StreamState{}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)-5] ^= 0x01
	if _, _, err := ResumeProfiler(bytes.NewReader(data), DefaultConfig()); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("ResumeProfiler on corrupt file = %v, want checksum error", err)
	}
}

// TestCheckpointConfigMismatch checks that resuming under different
// semantics is refused rather than silently accepted.
func TestCheckpointConfigMismatch(t *testing.T) {
	p := NewProfiler(trace.NewSymbolTable(), DefaultConfig())
	var buf bytes.Buffer
	if err := p.WriteCheckpoint(&buf, StreamState{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ResumeProfiler(&buf, RMSOnlyConfig()); err == nil || !strings.Contains(err.Error(), "different configuration") {
		t.Errorf("ResumeProfiler with mismatched config = %v, want refusal", err)
	}
}

// cellsState returns a profiler that has read n cells and written n cells
// of one leaf chunk inside a single open activation per thread, so states
// built for different n ≤ shadow.LeafCells differ only in their number of
// non-zero cells.
func cellsState(t *testing.T, n int) *Profiler {
	t.Helper()
	b := trace.NewBuilder()
	for id := trace.ThreadID(1); id <= 2; id++ {
		th := b.Thread(id)
		th.Call("touch")
		th.Read(trace.Addr(id)<<20, uint32(n))
		th.Write(trace.Addr(id)<<20+shadow.LeafCells, uint32(n))
	}
	tr := b.Trace()
	p := NewProfiler(tr.Symbols, DefaultConfig())
	if err := p.Feed(tr); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCheckpointAllocsIndependentOfCells pins the encoder's cost model: a
// checkpoint written into a reused buffer allocates per leaf chunk, thread
// and profile, never per cell, so a state with 4× the non-zero cells in the
// same chunks (whole chunks, at 4n) allocates exactly as much.
func TestCheckpointAllocsIndependentOfCells(t *testing.T) {
	const n = shadow.LeafCells / 4
	allocs := func(p *Profiler) float64 {
		var buf bytes.Buffer
		return testing.AllocsPerRun(20, func() {
			buf.Reset()
			if err := p.WriteCheckpoint(&buf, StreamState{EventsDelivered: 9}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := cellsState(t, n), cellsState(t, 4*n)
	if !reflect.DeepEqual(leafCounts(small), leafCounts(large)) {
		t.Fatalf("states differ in leaf chunks: %v vs %v", leafCounts(small), leafCounts(large))
	}
	if a, b := allocs(small), allocs(large); a != b {
		t.Errorf("WriteCheckpoint allocates %.0f times for %d cells per table but %.0f for %d", a, n, b, 4*n)
	}
}

// TestCheckpointRejectsMalformedRuns feeds hand-built table sections to the
// run decoder: every malformation wraps ErrCheckpointCorrupt, and none is
// stored from — in particular a huge run length over a short payload is
// refused before a single leaf chunk is materialized.
func TestCheckpointRejectsMalformedRuns(t *testing.T) {
	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	// leaves is how many chunks the valid prefix may materialize: none
	// when the first run header is already malformed.
	cases := map[string]struct {
		data   []byte
		leaves int
	}{
		"truncated address":       {[]byte{0x80}, 0},
		"truncated length":        {append(uv(5), 0x80), 0},
		"missing length":          {uv(5), 0},
		"huge run, short payload": {uv(0, 1<<40, 1, 1, 1), 0},
		"zero-length run":         {uv(0, 0), 0},
		"crosses a leaf chunk":    {uv(shadow.LeafCells-1, 2, 1, 1), 0},
		"truncated value":         {append(uv(0, 2, 1), 0x80), 1},
		"zero value":              {uv(0, 1, 0), 0},
		"address overflow":        {append(uv(1<<63, 1, 1), uv(1<<63, 1, 1)...), 1},
		"run past the top":        {append(uv(1<<64-1, 1, 1), uv(0, 1, 1)...), 1},
	}
	for name, c := range cases {
		tab := shadow.New[uint64]()
		err := loadTable(c.data, tab, 1)
		if !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("%s: loadTable = %v, want ErrCheckpointCorrupt", name, err)
		}
		if tab.LeafChunks() > c.leaves {
			t.Errorf("%s: %d leaf chunks materialized, at most %d allowed", name, tab.LeafChunks(), c.leaves)
		}
	}
	// A well-formed table: two runs split at a leaf boundary (gap 0).
	const edge = shadow.LeafCells
	tab := shadow.New[uint64]()
	if err := loadTable(uv(edge-2, 2, 7, 8, 0, 1, 9), tab, 1); err != nil {
		t.Fatal(err)
	}
	if tab.Load(edge-2) != 7 || tab.Load(edge-1) != 8 || tab.Load(edge) != 9 || tab.LeafChunks() != 2 {
		t.Errorf("leaf-boundary runs decoded wrongly")
	}
}

// TestCheckpointRejectsOtherVersions: a version-1 or version-2 checkpoint
// (or any other version) is unusable, reported as ErrCheckpointCorrupt so
// the daemon discards it and the session starts over.
func TestCheckpointRejectsOtherVersions(t *testing.T) {
	p := NewProfiler(trace.NewSymbolTable(), DefaultConfig())
	var buf bytes.Buffer
	if err := p.WriteCheckpoint(&buf, StreamState{}); err != nil {
		t.Fatal(err)
	}
	for _, v := range []byte{1, 2} {
		doc := bytes.Clone(buf.Bytes())
		doc[len(checkpointMagic)] = v
		_, _, err := ResumeProfiler(bytes.NewReader(doc), DefaultConfig())
		if want := fmt.Sprintf("unsupported checkpoint version %d", v); !errors.Is(err, ErrCheckpointCorrupt) || !strings.Contains(err.Error(), want) {
			t.Errorf("ResumeProfiler on a v%d header = %v, want unsupported-version ErrCheckpointCorrupt", v, err)
		}
		if _, err := ReadCheckpointState(bytes.NewReader(doc), DefaultConfig()); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("ReadCheckpointState on a v%d header = %v, want ErrCheckpointCorrupt", v, err)
		}
	}
}

// TestCheckpointRejectsMalformedSections covers the payload framing around
// the runs and the write shadow's values: trailing bytes, a missing thread
// table, a write-shadow cell whose timestamp part is 0, and a write shadow
// in an rms-only checkpoint, each under a valid CRC.
func TestCheckpointRejectsMalformedSections(t *testing.T) {
	tr := trace.Random(trace.RandomConfig{Seed: 5, Ops: 80, Threads: 2})
	write := func(cfg Config) []byte {
		p := NewProfiler(tr.Symbols, cfg)
		if err := p.Feed(tr); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := p.WriteCheckpoint(&buf, StreamState{}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()[ckptHeaderLen:]
	}
	full := write(DefaultConfig())
	rmsOnly := write(RMSOnlyConfig())
	// withW replaces a document's w section, which sits right after the
	// envelope, with one run of a single cell holding v.
	withW := func(payload []byte, v byte) []byte {
		envEnd := 4 + int(binary.LittleEndian.Uint32(payload))
		wLen := int(binary.LittleEndian.Uint32(payload[envEnd:]))
		out := append([]byte{}, payload[:envEnd]...)
		out = binary.LittleEndian.AppendUint32(out, 3)
		out = append(out, 0, 1, v)
		return append(out, payload[envEnd+4+wLen:]...)
	}
	if _, _, err := ResumeProfiler(bytes.NewReader(frameCheckpoint(withW(full, 2))), DefaultConfig()); err != nil {
		t.Fatalf("a w cell holding timestamp 1 from a thread: %v", err)
	}
	cases := []struct {
		name    string
		payload []byte
		cfg     Config
	}{
		{"trailing bytes", append(append([]byte{}, full...), 0), DefaultConfig()},
		{"truncated thread table", full[:len(full)-1], DefaultConfig()},
		{"w cell with timestamp 0", withW(full, 1), DefaultConfig()},
		{"write shadow in rms-only", withW(rmsOnly, 2), RMSOnlyConfig()},
	}
	for _, c := range cases {
		doc := frameCheckpoint(c.payload)
		if _, _, err := ResumeProfiler(bytes.NewReader(doc), c.cfg); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("%s: ResumeProfiler = %v, want ErrCheckpointCorrupt", c.name, err)
		}
		if _, err := ReadCheckpointState(bytes.NewReader(doc), c.cfg); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("%s: ReadCheckpointState = %v, want ErrCheckpointCorrupt", c.name, err)
		}
	}
}
