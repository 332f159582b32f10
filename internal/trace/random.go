package trace

import (
	"fmt"
	"math/rand"
)

// RandomConfig sizes Random traces. The zero value of any field selects a
// sensible default, so tests can write RandomConfig{Seed: n, Ops: m}.
type RandomConfig struct {
	// Seed seeds the generator; equal configs produce identical traces.
	Seed int64
	// Threads is the number of application threads (default 3).
	Threads int
	// Routines is the size of the routine name pool (default 6).
	Routines int
	// Ops is the total number of operations issued across all threads
	// (default 512). The trace length exceeds Ops slightly: the builder
	// inserts switchThread events and closes dangling activations.
	Ops int
	// Cells is the shared address-space size; small values maximize
	// cross-thread collisions and with them induced first-reads
	// (default 24).
	Cells int
	// MaxDepth bounds each thread's call-stack depth (default 6).
	MaxDepth int
}

func (cfg *RandomConfig) defaults() {
	if cfg.Threads <= 0 {
		cfg.Threads = 3
	}
	if cfg.Routines <= 0 {
		cfg.Routines = 6
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 512
	}
	if cfg.Cells <= 0 {
		cfg.Cells = 24
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 6
	}
}

// Random generates a pseudo-random valid multi-thread trace: interleaved
// threads issuing nested calls, reads and writes over a small shared
// address space (provoking induced first-reads from peer threads), kernel
// I/O in both directions (provoking external input), synchronization
// events, and bursts of plain work. It is the adversarial input of the
// randomized property and differential tests; the builder guarantees
// structural validity (balanced activations, monotonic time, non-decreasing
// per-thread cost).
func Random(cfg RandomConfig) *Trace {
	b := NewBuilder()
	randomOps(b, cfg)
	return b.Trace()
}

// randomOps issues the operations of Random(cfg) on b.
func randomOps(b *Builder, cfg RandomConfig) {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	threads := make([]*ThreadBuilder, cfg.Threads)
	for i := range threads {
		threads[i] = b.Thread(ThreadID(i + 1))
	}
	names := make([]string, cfg.Routines)
	for i := range names {
		names[i] = fmt.Sprintf("routine_%02d", i)
	}
	for op := 0; op < cfg.Ops; op++ {
		t := threads[rng.Intn(len(threads))]
		addr := Addr(1 + rng.Intn(cfg.Cells))
		size := uint32(1 + rng.Intn(4))
		switch k := rng.Intn(100); {
		case k < 18: // call (or return when at max depth)
			if t.Depth() < cfg.MaxDepth {
				t.Call(names[rng.Intn(len(names))])
			} else {
				t.Ret()
			}
		case k < 28: // return (dangling activations are closed by Trace())
			if t.Depth() > 0 {
				t.Ret()
			}
		case k < 55:
			t.Read(addr, size)
		case k < 75:
			t.Write(addr, size)
		case k < 82: // kernel fills a buffer: external input
			t.SysRead(addr, size)
		case k < 88: // kernel drains a buffer: implicit reads by the thread
			t.SysWrite(addr, size)
		case k < 94:
			t.Work(uint64(rng.Intn(32)))
		case k < 97:
			t.Acquire(addr)
		default:
			t.Release(addr)
		}
	}
}
