package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
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
// stored from — in particular a huge run count over a short payload is
// refused before a single leaf chunk is materialized.
func TestCheckpointRejectsMalformedRuns(t *testing.T) {
	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	const leaf = shadow.LeafCells
	// leaves is how many chunks the valid prefix may materialize: none
	// when the first run is already malformed.
	cases := map[string]struct {
		data   []byte
		minVal uint64
		leaves int
	}{
		"truncated address":       {[]byte{0x80}, 1, 0},
		"missing count":           {uv(5), 1, 0},
		"truncated count":         {append(uv(5), 0x80), 1, 0},
		"missing value":           {uv(5, 1), 1, 0},
		"truncated value":         {append(uv(0, 2), 0x80), 1, 0},
		"zero count":              {uv(0, 0, 1), 1, 0},
		"count over a leaf":       {uv(0, leaf+1, 1), 1, 0},
		"huge count, short data":  {uv(0, 1<<40, 1), 1, 0},
		"count wraps past a leaf": {uv(1, 1<<64-1, 1), 1, 0},
		"crosses a leaf chunk":    {uv(leaf-1, 2, 1), 1, 0},
		"whole leaf, off by one":  {uv(1, leaf, 1), 1, 0},
		"zero timestamp":          {uv(0, 1, 0), 1, 0},
		"w timestamp part 0":      {uv(0, 3, 1), 2, 0},
		"value below min, later":  {uv(0, 1, 2, 5, 1, 1), 2, 1},
		"truncated second run":    {append(uv(0, 2, 7), 0x80), 1, 1},
		"address overflow":        {append(uv(1<<63, 1, 1), uv(1<<63, 1, 1)...), 1, 1},
		"run past the top":        {append(uv(1<<64-1, 1, 1), uv(0, 1, 1)...), 1, 1},
		"second run crosses leaf": {uv(0, 1, 1, leaf-2, 2, 1), 1, 1},
		"literal missing values":  {uv(0, 3, 0, 5, 6), 1, 0},
		"literal truncated value": {append(uv(0, 2, 0, 5), 0x80), 1, 0},
		"literal zero value":      {uv(0, 3, 0, 5, 0, 6), 1, 0},
		"literal w value 1":       {uv(0, 2, 0, 4, 1), 2, 0},
		"literal count, no data":  {uv(0, leaf, 0, 1, 1), 1, 0},
		"literal crosses a leaf":  {uv(leaf-1, 2, 0, 1, 2), 1, 0},
	}
	for name, c := range cases {
		tab := shadow.New[uint64]()
		err := loadTable(c.data, tab, c.minVal)
		if !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("%s: loadTable = %v, want ErrCheckpointCorrupt", name, err)
		}
		if tab.LeafChunks() > c.leaves {
			t.Errorf("%s: %d leaf chunks materialized, at most %d allowed", name, tab.LeafChunks(), c.leaves)
		}
		if err := loadTable(c.data, nil, c.minVal); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("%s: validating loadTable = %v, want ErrCheckpointCorrupt", name, err)
		}
	}
	// Well-formed tables: runs split at a leaf boundary (gap 0) — a repeat
	// run, then a literal run and a repeat run in the next leaf — and a run
	// ending on the last cell of the address space.
	tab := shadow.New[uint64]()
	if err := loadTable(uv(leaf-2, 2, 7, 0, 3, 0, 4, 5, 6, 0, 3, 9), tab, 1); err != nil {
		t.Fatal(err)
	}
	for addr, want := range map[trace.Addr]uint64{leaf - 3: 0, leaf - 2: 7, leaf - 1: 7, leaf: 4, leaf + 1: 5, leaf + 2: 6, leaf + 3: 9, leaf + 5: 9, leaf + 6: 0} {
		if got := tab.Load(addr); got != want {
			t.Errorf("leaf-boundary runs: cell %#x = %d, want %d", addr, got, want)
		}
	}
	if tab.LeafChunks() != 2 {
		t.Errorf("leaf-boundary runs materialized %d leaf chunks, want 2", tab.LeafChunks())
	}
	top := shadow.New[uint64]()
	if err := loadTable(uv(1<<64-leaf, leaf, 4), top, 1); err != nil {
		t.Fatal(err)
	}
	if top.Load(1<<64-1) != 4 || top.Load(1<<64-leaf) != 4 || top.LeafChunks() != 1 {
		t.Errorf("a whole top leaf decoded wrongly")
	}
}

// TestCheckpointTablesAreRuns pins what makes v5 documents small: a span
// stamped by one event over whole leaf chunks encodes as one run per leaf
// per table — three uvarints each — whatever the number of cells.
func TestCheckpointTablesAreRuns(t *testing.T) {
	const leaves = 5
	b := trace.NewBuilder()
	th := b.Thread(1)
	th.Call("scan")
	th.Write(3*shadow.LeafCells, leaves*shadow.LeafCells)
	th.Read(3*shadow.LeafCells, leaves*shadow.LeafCells)
	tr := b.Trace()
	p := NewProfiler(tr.Symbols, DefaultConfig())
	if err := p.Feed(tr); err != nil {
		t.Fatal(err)
	}
	doc, err := p.Checkpoint(StreamState{})
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := readCheckpoint(bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	// repeats counts the section's runs, each of which must be a repeat run
	// (gap, count, non-zero value) over a whole leaf chunk.
	repeats := func(section []byte) (n int) {
		for len(section) > 0 {
			var f [3]uint64
			for i := range f {
				v, k := binary.Uvarint(section)
				if k <= 0 {
					t.Fatalf("malformed run in %x", section)
				}
				f[i], section = v, section[k:]
			}
			if f[1] != shadow.LeafCells || f[2] == 0 {
				t.Fatalf("run (gap %d, count %d, value %d), want a repeat run over a whole leaf", f[0], f[1], f[2])
			}
			n++
		}
		return n
	}
	if len(parsed.ts) != 1 {
		t.Fatalf("%d thread tables, want 1", len(parsed.ts))
	}
	for name, section := range map[string][]byte{"w": parsed.w, "ts": parsed.ts[0]} {
		if n := repeats(section); n != leaves {
			t.Errorf("%s table holds %d runs, want one per leaf chunk (%d)", name, n, leaves)
		}
	}
	q, _, err := ResumeProfiler(bytes.NewReader(doc), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := leafCounts(q), leafCounts(p); !reflect.DeepEqual(got, want) {
		t.Errorf("resumed leaf chunks %v, original %v", got, want)
	}
}

// TestTableRunsRoundTrip encodes hand-made and random leaf contents —
// long stretches, stretches of two or three, alternating values, values of
// one to six bytes, isolated cells, full and nearly empty leaves — and
// requires the decoded table to equal the original cell for cell and chunk
// for chunk. It also pins the encoding's size against listing every value
// with one header per span of non-zero cells, the per-cell layout runs
// replaced: long stretches make a table several times smaller, and no
// table costs more than one byte per span more — one literal run per span.
func TestTableRunsRoundTrip(t *testing.T) {
	const leaf = shadow.LeafCells
	rng := rand.New(rand.NewSource(24))
	for _, p := range []struct {
		name      string
		cell      func(i int) uint64
		smaller4x bool // long stretches: at most a quarter of the per-cell size
	}{
		{"long stretches", func(i int) uint64 { return uint64(1 + i/100) }, true},
		{"long stretches of big", func(i int) uint64 { return uint64(1<<40 + i/60) }, true},
		{"pairs", func(i int) uint64 { return uint64(1 + i/2) }, false},
		{"triples of big", func(i int) uint64 { return uint64(1<<20 + i/3) }, false},
		{"alternating", func(i int) uint64 { return uint64(1 + i%2) }, false},
		{"sparse", func(i int) uint64 { return uint64(i % 7 / 6 * (1 + i)) }, false},
		{"holes in a span", func(i int) uint64 { return uint64(i%5/4*3 + i%5%4/3*(1<<35)) }, false},
		// Stretches of four or five equal cells between distinct values:
		// worth a repeat run only when that does not split a literal run.
		{"fours between pairs", func(i int) uint64 {
			if p := i % 8; p < 2 || p > 5 {
				return uint64(1 + p)
			}
			return uint64(20 + i/8)
		}, false},
		{"fives between fours", func(i int) uint64 {
			if p := i % 9; p < 4 {
				return uint64(1 + p)
			}
			return uint64(20 + i/9)
		}, false},
		{"random", func(int) uint64 { return uint64(rng.Intn(4)) * uint64(1+rng.Intn(3)) << (7 * rng.Intn(5)) }, false},
	} {
		want := shadow.New[uint64]()
		for _, base := range []uint64{0, 3 * leaf, 1 << 30, 1<<64 - leaf} {
			for i := 0; i < leaf; i++ {
				if v := p.cell(i); v != 0 {
					want.Store(trace.Addr(base+uint64(i)), v<<1|v&1)
				}
			}
		}
		section := appendTable(nil, want)[4:]
		got := shadow.New[uint64]()
		if err := loadTable(section, got, 2); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if got.LeafChunks() != want.LeafChunks() {
			t.Errorf("%s: %d leaf chunks decoded, %d encoded", p.name, got.LeafChunks(), want.LeafChunks())
		}
		perCell, spans := 0, 0
		var end uint64
		want.Leaves(func(base trace.Addr, cells []uint64) {
			for i, v := range cells {
				addr := trace.Addr(uint64(base) + uint64(i))
				if g := got.Load(addr); g != v {
					t.Fatalf("%s: cell %#x decoded as %d, want %d", p.name, addr, g, v)
				}
				if v == 0 {
					continue
				}
				if i == 0 || cells[i-1] == 0 {
					j := i
					for j < len(cells) && cells[j] != 0 {
						j++
					}
					perCell += uvarintLen(uint64(addr)-end) + uvarintLen(uint64(j-i))
					end = uint64(addr) + uint64(j-i)
					spans++
				}
				perCell += uvarintLen(v)
			}
		})
		switch {
		case p.smaller4x && 4*len(section) > perCell:
			t.Errorf("%s: %d bytes of runs, over a quarter of the %d listing every cell", p.name, len(section), perCell)
		case len(section) > perCell+spans:
			t.Errorf("%s: %d bytes of runs, %d listing every cell (%d spans)", p.name, len(section), perCell, spans)
		}
	}
}

// TestSpanRunsAreFewestBytes encodes random spans of stretches of equal
// cells and compares each with the cheapest way to cut it into repeat and
// literal runs, found by trying every cut. The spans stay under 128 cells,
// so every run count is one byte.
func TestSpanRunsAreFewestBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 2000; trial++ {
		var cells []uint64
		var stretches [][2]uint64 // cells, value
		for k := 2 + rng.Intn(9); len(stretches) < k; {
			v := uint64(1+rng.Intn(5)) << (7 * rng.Intn(3))
			if len(stretches) > 0 && stretches[len(stretches)-1][1] == v {
				continue
			}
			n := 1 + rng.Intn(6)
			stretches = append(stretches, [2]uint64{uint64(n), v})
			for range n {
				cells = append(cells, v)
			}
		}
		tab := shadow.New[uint64]()
		for i, v := range cells {
			tab.Store(trace.Addr(i), v)
		}
		section := appendTable(nil, tab)[4:]
		got := shadow.New[uint64]()
		if err := loadTable(section, got, 1); err != nil {
			t.Fatalf("%v: %v", stretches, err)
		}
		for i, v := range cells {
			if g := got.Load(trace.Addr(i)); g != v {
				t.Fatalf("%v: cell %d decoded as %d, want %d", stretches, i, g, v)
			}
		}
		// Bit i of cut set: a run ends after stretch i. Each run costs a
		// gap byte and a count byte, then its value if it is one stretch,
		// else the literal marker and its cells' values.
		best := math.MaxInt
		for cut := 0; cut < 1<<(len(stretches)-1); cut++ {
			size, first := 0, 0
			for i := range stretches {
				if i < len(stretches)-1 && cut&(1<<i) == 0 {
					continue
				}
				if first == i {
					size += 2 + uvarintLen(stretches[i][1])
				} else {
					size += 3
					for _, s := range stretches[first : i+1] {
						size += int(s[0]) * uvarintLen(s[1])
					}
				}
				first = i + 1
			}
			best = min(best, size)
		}
		if len(section) != best {
			t.Fatalf("%v: %d bytes of runs, the cheapest cut takes %d", stretches, len(section), best)
		}
	}
}

// TestCheckpointRejectsOtherVersions: a checkpoint of an earlier version
// (or any other version) is unusable, reported as ErrCheckpointCorrupt so
// the daemon discards it and the session starts over.
func TestCheckpointRejectsOtherVersions(t *testing.T) {
	p := NewProfiler(trace.NewSymbolTable(), DefaultConfig())
	var buf bytes.Buffer
	if err := p.WriteCheckpoint(&buf, StreamState{}); err != nil {
		t.Fatal(err)
	}
	for _, v := range []byte{1, 2, 3, 4} {
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
