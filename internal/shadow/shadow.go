// Package shadow implements the sparse three-level lookup tables the paper
// uses for shadow memories (§4.1, "Implementation Details"): only chunks
// related to memory cells actually accessed need to be materialized, which
// keeps the per-thread shadow memories cheap for threads that touch little
// memory.
//
// The address space is split as
//
//	[ level-1: upper bits, hash map ][ level-2: midBits ][ level-3: lowBits ]
//
// Level 1 is a map so the full 64-bit address space is covered; levels 2 and
// 3 are dense arrays. The zero value of T is the default content of every
// cell; chunks are allocated on the first Store, Slot or Span of a
// non-observed region. Range accesses walk a leaf chunk at a time (Span,
// PeekSpan), so a multi-cell access costs one lookup per chunk it touches,
// not one per cell.
package shadow

import (
	"math/bits"
	"slices"

	"aprof/internal/trace"
)

// LeafCells is the number of cells in one leaf chunk, the unit in which
// tables materialize memory. Leaf chunks start at multiples of LeafCells.
const LeafCells = lowSize

// The leaf size is an implementation choice, not part of the paper's
// algorithm. 256 cells (2 KB of uint64) measured best among 256, 512 and
// 1024 on the profiler's sessions, whose accesses are short and scattered:
// every fresh leaf must be zeroed and later scanned by the GC and by
// checkpoints, so a small leaf wastes less work on cells never touched,
// while the span walk keeps the per-leaf lookup cost off long accesses.
const (
	lowBits  = 8  // cells per leaf chunk: 256
	midBits  = 10 // leaf chunks per level-2 node: 1024
	lowSize  = 1 << lowBits
	midSize  = 1 << midBits
	lowMask  = lowSize - 1
	midMask  = midSize - 1
	topShift = lowBits + midBits
)

// leaf is a level-3 chunk of cell values.
type leaf[T any] struct {
	cells [lowSize]T
}

// node is a level-2 table of leaf chunks. present has bit li set when
// leaves[li] exists, so walks visit the materialized leaves without testing
// every pointer.
type node[T any] struct {
	leaves  [midSize]*leaf[T]
	present [midSize / 64]uint64
}

// each calls fn for every materialized leaf of n in ascending index order.
func (n *node[T]) each(fn func(li uint64, lf *leaf[T])) {
	for w, set := range &n.present {
		for set != 0 {
			li := uint64(w)*64 + uint64(bits.TrailingZeros64(set))
			fn(li, n.leaves[li])
			set &= set - 1
		}
	}
}

// Table is a sparse map from trace.Addr to T with zero-valued default
// content and O(1) access.
type Table[T any] struct {
	top map[uint64]*node[T]
	// leafCount tracks materialized leaf chunks for space accounting.
	leafCount int
	// hint caches the most recently touched node to exploit locality.
	hintKey  uint64
	hintNode *node[T]
	// hintHits/hintLookups count node lookups served by the hint vs total,
	// for the observability layer. Plain (non-atomic) fields: a Table is
	// single-goroutine by contract (see Slot), and keeping the hot path free
	// of atomics means the counters cost two register increments whether or
	// not a metrics registry is attached.
	hintHits    uint64
	hintLookups uint64
}

// New returns an empty table.
func New[T any]() *Table[T] {
	return &Table[T]{top: make(map[uint64]*node[T])}
}

// Load returns the value at addr, or the zero value if the cell was never
// stored to.
func (t *Table[T]) Load(addr trace.Addr) T {
	var zero T
	lf := t.peekLeaf(addr)
	if lf == nil {
		return zero
	}
	return lf.cells[uint64(addr)&lowMask]
}

// Store sets the value at addr, materializing chunks as needed.
func (t *Table[T]) Store(addr trace.Addr, v T) {
	t.leaf(addr).cells[uint64(addr)&lowMask] = v
}

// Slot returns a pointer to the cell at addr, materializing chunks as
// needed. The pointer is invalidated by nothing (chunks are never freed), so
// callers may retain it across calls within a single goroutine.
func (t *Table[T]) Slot(addr trace.Addr) *T {
	return &t.leaf(addr).cells[uint64(addr)&lowMask]
}

// Span returns the cells from addr up to n cells long, clipped to the end
// of addr's leaf chunk, materializing the chunk. n must be positive. Like
// Slot, the slice aliases the table's storage and stays valid for the
// table's lifetime. Walking a range of n cells therefore costs one lookup
// per leaf chunk it spans: advance addr by len(span) (wrapping past the top
// of the address space to 0) and n by the same, until n is 0.
func (t *Table[T]) Span(addr trace.Addr, n uint64) []T {
	i := uint64(addr) & lowMask
	return t.leaf(addr).cells[i : i+min(n, lowSize-i)]
}

// PeekSpan is Span without materializing: it returns nil when addr's leaf
// chunk does not exist, that is, when no cell in it was ever stored to and
// all of them hold the zero value.
func (t *Table[T]) PeekSpan(addr trace.Addr, n uint64) []T {
	lf := t.peekLeaf(addr)
	if lf == nil {
		return nil
	}
	i := uint64(addr) & lowMask
	return lf.cells[i : i+min(n, lowSize-i)]
}

// leaf returns the leaf chunk holding addr, materializing it and its node.
func (t *Table[T]) leaf(addr trace.Addr) *leaf[T] {
	key := uint64(addr) >> topShift
	n := t.lookupNode(key)
	if n == nil {
		n = &node[T]{}
		t.top[key] = n
		t.hintKey, t.hintNode = key, n
	}
	li := (uint64(addr) >> lowBits) & midMask
	lf := n.leaves[li]
	if lf == nil {
		lf = &leaf[T]{}
		n.leaves[li] = lf
		n.present[li/64] |= 1 << (li % 64)
		t.leafCount++
	}
	return lf
}

// peekLeaf returns the leaf chunk holding addr, or nil if it was never
// materialized.
func (t *Table[T]) peekLeaf(addr trace.Addr) *leaf[T] {
	n := t.lookupNode(uint64(addr) >> topShift)
	if n == nil {
		return nil
	}
	return n.leaves[(uint64(addr)>>lowBits)&midMask]
}

func (t *Table[T]) lookupNode(key uint64) *node[T] {
	t.hintLookups++
	if t.hintNode != nil && t.hintKey == key {
		t.hintHits++
		return t.hintNode
	}
	n := t.top[key]
	if n != nil {
		t.hintKey, t.hintNode = key, n
	}
	return n
}

// LeafChunks returns the number of materialized level-3 chunks.
func (t *Table[T]) LeafChunks() int { return t.leafCount }

// HintStats returns how many node lookups were served by the locality hint
// and how many happened in total, for the observability layer's hint hit
// rate. Both counters are monotonic over the table's lifetime.
func (t *Table[T]) HintStats() (hits, lookups uint64) { return t.hintHits, t.hintLookups }

// SizeBytes estimates the memory held by the table: materialized leaves plus
// level-2 pointer arrays, with elemSize the size of T in bytes. The nodes'
// presence bitmaps, 1/64 of their pointer arrays, are left out.
func (t *Table[T]) SizeBytes(elemSize int) int64 {
	const ptrSize = 8
	leafBytes := int64(t.leafCount) * int64(lowSize) * int64(elemSize)
	nodeBytes := int64(len(t.top)) * int64(midSize) * ptrSize
	return leafBytes + nodeBytes
}

// ForEach calls fn for every cell in every materialized chunk whose value is
// non-zero according to isZero. Iteration order is unspecified.
func (t *Table[T]) ForEach(isZero func(T) bool, fn func(trace.Addr, T)) {
	for key, n := range t.top {
		base := key << topShift
		n.each(func(li uint64, lf *leaf[T]) {
			chunkBase := base | li<<lowBits
			for ci := range lf.cells {
				v := lf.cells[ci]
				if isZero(v) {
					continue
				}
				fn(trace.Addr(chunkBase|uint64(ci)), v)
			}
		})
	}
}

// Leaves calls fn for every materialized leaf chunk in increasing address
// order, with the address of the chunk's first cell and the chunk's cells.
// cells aliases the table's storage: fn may read it during the call but must
// neither retain nor modify it.
func (t *Table[T]) Leaves(fn func(base trace.Addr, cells []T)) {
	keys := make([]uint64, 0, len(t.top))
	for key := range t.top {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	for _, key := range keys {
		n := t.top[key]
		base := key << topShift
		n.each(func(li uint64, lf *leaf[T]) {
			fn(trace.Addr(base|li<<lowBits), lf.cells[:])
		})
	}
}

// UpdateAll rewrites every cell of every materialized chunk through fn.
// Cells never stored to are not visited (their chunks do not exist).
func (t *Table[T]) UpdateAll(fn func(T) T) {
	for _, n := range t.top {
		n.each(func(_ uint64, lf *leaf[T]) {
			for ci := range lf.cells {
				lf.cells[ci] = fn(lf.cells[ci])
			}
		})
	}
}
