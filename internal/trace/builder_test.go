package trace

import (
	"fmt"
	"reflect"
	"testing"
)

// closedReference returns the events b has emitted so far followed by what
// Trace.CloseDangling appends to them: the result Builder.Trace must equal.
func closedReference(b *Builder) []Event {
	tr := &Trace{Symbols: b.tr.Symbols}
	for _, c := range b.chunks {
		tr.Events = append(tr.Events, c...)
	}
	tr.Events = append(tr.Events, b.cur...)
	tr.CloseDangling()
	return tr.Events
}

// checkBuilderTrace finalizes b and compares it with closedReference.
func checkBuilderTrace(t *testing.T, b *Builder) {
	t.Helper()
	want := closedReference(b)
	got := b.Trace()
	if !reflect.DeepEqual(got.Events, want) {
		t.Fatalf("Builder.Trace differs from emitted events + CloseDangling (%d vs %d events)", len(got.Events), len(want))
	}
	if len(got.Events) != cap(got.Events) {
		t.Errorf("Events len %d, cap %d: want an exactly sized slice", len(got.Events), cap(got.Events))
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

// emitted is the number of events b holds before finalization.
func emitted(b *Builder) int { return b.full + len(b.cur) }

// chunkBoundaries returns the event counts at which the builder's chunks
// fill, through its second full-size chunk.
func chunkBoundaries() []int {
	var out []int
	total, size := 0, firstChunkEvents
	for fullSize := 0; fullSize < 2; size = min(2*size, chunkEvents) {
		total += size
		out = append(out, total)
		if size == chunkEvents {
			fullSize++
		}
	}
	return out
}

func TestBuilderTraceMatchesCloseDangling(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		for seed := int64(1); seed <= 30; seed++ {
			for _, ops := range []int{0, 1, 40, 512, 3 * chunkEvents} {
				b := NewBuilder()
				randomOps(b, RandomConfig{Seed: seed, Ops: ops, Threads: int(1 + seed%5)})
				checkBuilderTrace(t, b)
			}
		}
	})
	for _, auto := range []bool{true, false} {
		for _, boundary := range chunkBoundaries() {
			for _, n := range []int{boundary - 1, boundary, boundary + 1} {
				t.Run(fmt.Sprintf("auto=%v/events=%d", auto, n), func(t *testing.T) {
					b := NewBuilder()
					b.AutoCost(auto)
					interleave(b, auto, n)
					if got := emitted(b); got != n {
						t.Fatalf("emitted %d events, want %d", got, n)
					}
					if n == boundary && len(b.cur) != cap(b.cur) {
						t.Fatalf("%d events do not fill a chunk (%d of %d)", n, len(b.cur), cap(b.cur))
					}
					checkBuilderTrace(t, b)
				})
			}
		}
	}
}

// interleave has three threads interleave nested calls and accesses until
// exactly n events are emitted; each thread then does work that no event
// records, so dangling returns must carry the cost of the thread's last
// event, not its final cost.
func interleave(b *Builder, auto bool, n int) {
	ths := []*ThreadBuilder{b.Thread(3), b.Thread(1), b.Thread(2)}
	cur := ths[0]
	for i := 0; emitted(b) < n; i++ {
		// Switch threads only while a switch event still fits.
		if emitted(b) < n-1 && i%7 == 0 {
			cur = ths[(i/7)%len(ths)]
		}
		if !auto {
			cur.SetCost(cur.Cost() + uint64(i%3))
		}
		switch {
		case i%11 == 0:
			cur.Call(fmt.Sprintf("f%d", i%4))
		case i%13 == 0 && cur.Depth() > 1:
			cur.Ret()
		case i%2 == 0:
			cur.Read1(Addr(i % 97))
		default:
			cur.Write(Addr(i%89), 2)
		}
	}
	for i, th := range ths {
		th.Work(uint64(5 + i))
	}
}
