package shadow

import (
	"math/rand"
	"testing"
	"testing/quick"

	"aprof/internal/trace"
)

func TestLoadDefaultZero(t *testing.T) {
	m := New[uint64]()
	if got := m.Load(12345); got != 0 {
		t.Errorf("Load of untouched cell = %d, want 0", got)
	}
	if m.LeafChunks() != 0 {
		t.Error("Load materialized a chunk")
	}
}

func TestStoreLoad(t *testing.T) {
	m := New[uint64]()
	addrs := []trace.Addr{0, 1, lowSize - 1, lowSize, lowSize * midSize, 1 << 40, 1<<63 + 17}
	for i, a := range addrs {
		m.Store(a, uint64(i)+100)
	}
	for i, a := range addrs {
		if got := m.Load(a); got != uint64(i)+100 {
			t.Errorf("Load(%d) = %d, want %d", a, got, uint64(i)+100)
		}
	}
}

func TestSlotAliasesStore(t *testing.T) {
	m := New[uint64]()
	slot := m.Slot(77)
	*slot = 5
	if got := m.Load(77); got != 5 {
		t.Errorf("Load = %d, want 5", got)
	}
	m.Store(77, 9)
	if *slot != 9 {
		t.Errorf("slot sees %d, want 9", *slot)
	}
}

func TestAgainstMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := New[uint64]()
	oracle := make(map[trace.Addr]uint64)
	// Clustered addresses exercise chunk sharing; sparse ones exercise the
	// top-level map.
	for i := 0; i < 20000; i++ {
		var a trace.Addr
		if rng.Intn(2) == 0 {
			a = trace.Addr(rng.Intn(10000))
		} else {
			a = trace.Addr(rng.Uint64())
		}
		if rng.Intn(3) == 0 {
			if got, want := m.Load(a), oracle[a]; got != want {
				t.Fatalf("Load(%d) = %d, want %d", a, got, want)
			}
		} else {
			v := rng.Uint64()
			m.Store(a, v)
			oracle[a] = v
		}
	}
	for a, want := range oracle {
		if got := m.Load(a); got != want {
			t.Fatalf("final Load(%d) = %d, want %d", a, got, want)
		}
	}
}

func TestForEachVisitsExactlyNonZero(t *testing.T) {
	m := New[uint64]()
	want := map[trace.Addr]uint64{
		3:         1,
		LeafCells: 2,
		1 << 30:   3,
		1 << 50:   4,
	}
	for a, v := range want {
		m.Store(a, v)
	}
	m.Store(99, 5)
	m.Store(99, 0) // explicitly zeroed: must not be visited
	got := make(map[trace.Addr]uint64)
	m.ForEach(func(v uint64) bool { return v == 0 }, func(a trace.Addr, v uint64) {
		got[a] = v
	})
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d cells, want %d: %v", len(got), len(want), got)
	}
	for a, v := range want {
		if got[a] != v {
			t.Errorf("ForEach got[%d] = %d, want %d", a, got[a], v)
		}
	}
}

// TestLeavesAddressOrder: Leaves visits every materialized chunk exactly
// once, in increasing address order across level-1 nodes (stored in a map),
// with the chunk's base address and its cells. The chunks at 63, 64 and
// 1023 chunks into a node sit at the edges of its presence bitmap's words.
func TestLeavesAddressOrder(t *testing.T) {
	m := New[uint8]()
	addrs := []trace.Addr{1 << 50, 7, 1 << 30, LeafCells + 5, 3<<40 + LeafCells - 1, 1<<30 + 2*LeafCells,
		1023*LeafCells + 9, 64 * LeafCells, 63*LeafCells + 1}
	for i, a := range addrs {
		m.Store(a, uint8(i+1))
	}
	var bases []trace.Addr
	m.Leaves(func(base trace.Addr, cells []uint8) {
		if len(cells) != LeafCells || base%LeafCells != 0 {
			t.Fatalf("leaf at %#x: %d cells", base, len(cells))
		}
		if len(bases) > 0 && base <= bases[len(bases)-1] {
			t.Fatalf("leaf %#x visited after %#x", base, bases[len(bases)-1])
		}
		bases = append(bases, base)
		for i, a := range addrs {
			if a-a%LeafCells == base && cells[a%LeafCells] != uint8(i+1) {
				t.Errorf("cell %#x = %d, want %d", a, cells[a%LeafCells], i+1)
			}
		}
	})
	if len(bases) != len(addrs) || len(bases) != m.LeafChunks() {
		t.Errorf("Leaves visited %d chunks, table has %d", len(bases), m.LeafChunks())
	}
}

func TestUpdateAll(t *testing.T) {
	m := New[uint64]()
	m.Store(1, 10)
	m.Store(2, 20)
	m.Store(1<<40, 30)
	m.UpdateAll(func(v uint64) uint64 {
		if v == 0 {
			return 0
		}
		return v / 10
	})
	for a, want := range map[trace.Addr]uint64{1: 1, 2: 2, 1 << 40: 3, 7: 0} {
		if got := m.Load(a); got != want {
			t.Errorf("after UpdateAll, Load(%d) = %d, want %d", a, got, want)
		}
	}
}

func TestSpaceAccounting(t *testing.T) {
	m := New[uint8]()
	if m.SizeBytes(1) != 0 {
		t.Error("empty table reports non-zero size")
	}
	m.Store(0, 1)
	one := m.SizeBytes(1)
	if one <= 0 {
		t.Error("non-empty table reports non-positive size")
	}
	m.Store(1, 1) // same chunk
	if got := m.SizeBytes(1); got != one {
		t.Errorf("same-chunk store changed size: %d -> %d", one, got)
	}
	m.Store(1<<40, 1) // new top-level region and chunk
	if got := m.SizeBytes(1); got <= one {
		t.Errorf("new chunk did not grow size: %d -> %d", one, got)
	}
	if m.LeafChunks() != 2 {
		t.Errorf("LeafChunks = %d, want 2", m.LeafChunks())
	}
}

// TestQuickStoreLoad is a property test: a Store followed by a Load of the
// same address returns the stored value, and a Load of a different address
// in a fresh table returns zero.
func TestQuickStoreLoad(t *testing.T) {
	f := func(a trace.Addr, v uint64, other trace.Addr) bool {
		m := New[uint64]()
		m.Store(a, v)
		if m.Load(a) != v {
			return false
		}
		if other != a && m.Load(other) != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkStoreDense(b *testing.B) {
	m := New[uint64]()
	for i := 0; i < b.N; i++ {
		m.Store(trace.Addr(i&0xffff), uint64(i))
	}
}

func BenchmarkLoadDense(b *testing.B) {
	m := New[uint64]()
	for i := 0; i < 1<<16; i++ {
		m.Store(trace.Addr(i), uint64(i))
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += m.Load(trace.Addr(i & 0xffff))
	}
	_ = sink
}

// TestHintStats checks the locality-hint accounting feeding the
// observability layer: same-node accesses hit the hint, a node switch
// misses it, and every span lookup counts once whatever its length.
func TestHintStats(t *testing.T) {
	m := New[uint64]()
	if hits, lookups := m.HintStats(); hits != 0 || lookups != 0 {
		t.Fatalf("fresh table: hits=%d lookups=%d", hits, lookups)
	}
	// First access materializes the node (miss); the next two share it.
	m.Store(1, 1)
	m.Store(2, 2)
	m.Load(1)
	hits, lookups := m.HintStats()
	if lookups != 3 {
		t.Errorf("lookups = %d, want 3", lookups)
	}
	if hits != 2 {
		t.Errorf("hits = %d, want 2 (same-node accesses)", hits)
	}
	// Jumping to a distant node must miss the hint.
	far := trace.Addr(1) << 40
	m.Store(far, 9)
	if h2, l2 := m.HintStats(); l2 != 4 || h2 != 2 {
		t.Errorf("after node switch: hits=%d lookups=%d, want 2/4", h2, l2)
	}
	// A span is one lookup, however many cells it returns.
	m.Span(far, LeafCells)
	m.PeekSpan(far+LeafCells, LeafCells)
	if h3, l3 := m.HintStats(); l3 != 6 || h3 != 4 {
		t.Errorf("after two span lookups: hits=%d lookups=%d, want 4/6", h3, l3)
	}
}

// TestSpanClipsAtLeafEnd: Span returns min(n, cells left in the leaf)
// cells starting at addr, aliasing the table's storage.
func TestSpanClipsAtLeafEnd(t *testing.T) {
	for _, c := range []struct {
		addr trace.Addr
		n    uint64
		want int
	}{
		{0, 1, 1},
		{0, LeafCells, LeafCells},
		{0, LeafCells + 1, LeafCells}, // n larger than a leaf
		{0, 1 << 40, LeafCells},       // far larger
		{LeafCells - 1, 2, 1},         // last cell of a leaf
		{LeafCells - 3, 2, 2},         // ends before the leaf does
		{5*LeafCells + 7, 3 * LeafCells, LeafCells - 7},
		{1<<64 - 1, 1, 1},       // the top cell
		{1<<64 - 1, 1 << 32, 1}, // clipped at the top: no wrap
		{1<<64 - LeafCells, 2 * LeafCells, LeafCells},
	} {
		m := New[uint64]()
		span := m.Span(c.addr, c.n)
		if len(span) != c.want {
			t.Errorf("Span(%#x, %d) has %d cells, want %d", c.addr, c.n, len(span), c.want)
			continue
		}
		if m.LeafChunks() != 1 {
			t.Errorf("Span(%#x, %d) materialized %d leaves, want 1", c.addr, c.n, m.LeafChunks())
		}
		for i := range span {
			span[i] = uint64(i) + 1
		}
		for i := range span {
			if got := m.Load(c.addr + trace.Addr(i)); got != uint64(i)+1 {
				t.Errorf("Span(%#x, %d): cell %d stored %d, Load sees %d", c.addr, c.n, i, i+1, got)
			}
		}
		if peek := m.PeekSpan(c.addr, c.n); len(peek) != c.want || &peek[0] != &span[0] {
			t.Errorf("PeekSpan(%#x, %d) does not alias Span's cells", c.addr, c.n)
		}
	}
}

// TestSpanWalkWrapsLikeCells: walking a range span by span — advancing the
// address by each span's length — visits exactly the cells Event.Cells
// does, in the same order, including ranges that wrap past 2⁶⁴−1 to 0.
func TestSpanWalkWrapsLikeCells(t *testing.T) {
	for _, c := range []struct {
		addr trace.Addr
		size uint32
	}{
		{0, 1},
		{LeafCells - 3, 2*LeafCells + 5},
		{1<<64 - 1, 1},
		{1<<64 - 1, 2},
		{1<<64 - 3, 2*LeafCells + 5},
		{1<<64 - LeafCells, LeafCells},
		{1<<64 - LeafCells, LeafCells + 1},
	} {
		m := New[uint64]()
		var walked []trace.Addr
		addr := c.addr
		for n := uint64(c.size); n > 0; {
			span := m.Span(addr, n)
			for i := range span {
				span[i] = uint64(len(walked)) + 1
				walked = append(walked, addr+trace.Addr(i))
			}
			addr += trace.Addr(len(span))
			n -= uint64(len(span))
		}
		var want []trace.Addr
		trace.Event{Kind: trace.KindRead, Addr: c.addr, Size: c.size}.Cells(func(a trace.Addr) { want = append(want, a) })
		if len(walked) != len(want) {
			t.Fatalf("walk from %#x over %d cells visited %d, Cells %d", c.addr, c.size, len(walked), len(want))
		}
		for i := range want {
			if walked[i] != want[i] {
				t.Fatalf("walk from %#x: cell %d is %#x, Cells gives %#x", c.addr, i, walked[i], want[i])
			}
			if got := m.Load(want[i]); got != uint64(i)+1 {
				t.Fatalf("walk from %#x: cell %#x holds %d, want %d", c.addr, want[i], got, i+1)
			}
		}
	}
}

// TestPeekSpanNeverMaterializes: PeekSpan of an absent leaf — in an empty
// table, next to a materialized leaf, in a materialized node and at the top
// of the address space — returns nil and leaves LeafChunks unchanged.
func TestPeekSpanNeverMaterializes(t *testing.T) {
	m := New[uint64]()
	for _, a := range []trace.Addr{0, LeafCells, 1<<64 - 1, 1 << 40} {
		if span := m.PeekSpan(a, LeafCells); span != nil {
			t.Errorf("PeekSpan(%#x) on an empty table = %d cells, want nil", a, len(span))
		}
	}
	if m.LeafChunks() != 0 {
		t.Fatalf("PeekSpan materialized %d leaves", m.LeafChunks())
	}
	m.Store(LeafCells+1, 9)
	for _, a := range []trace.Addr{0, 2 * LeafCells, 1<<64 - 1} {
		if span := m.PeekSpan(a, 3); span != nil {
			t.Errorf("PeekSpan(%#x) of an absent leaf = %d cells, want nil", a, len(span))
		}
	}
	if m.LeafChunks() != 1 {
		t.Fatalf("PeekSpan changed LeafChunks to %d, want 1", m.LeafChunks())
	}
	span := m.PeekSpan(LeafCells, 2*LeafCells)
	if len(span) != LeafCells || span[1] != 9 || span[0] != 0 {
		t.Errorf("PeekSpan of a materialized leaf = %d cells (%v...), want %d with cell 1 = 9", len(span), span[:min(2, len(span))], LeafCells)
	}
	if m.LeafChunks() != 1 {
		t.Errorf("PeekSpan changed LeafChunks to %d, want 1", m.LeafChunks())
	}
}
