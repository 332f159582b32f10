package core

import (
	"math/rand"
	"reflect"
	"testing"

	"aprof/internal/trace"
)

// longSpanTrace generates a random trace whose reads are long (up to 600
// cells over a 700-cell address space that starts mid-leaf) and whose
// writes are short and land inside earlier read spans: thread writes by
// the reader or by another thread, kernel fills and kernel drains. A later
// read over such a span sees runs of equal (ts_t[ℓ], w[ℓ]) pairs broken in
// its middle, and calls nested up to depth 6 leave the cells of one span
// last touched under different ancestors — the inputs that tell a
// run-at-a-time read handler from a per-cell one.
func longSpanTrace(rng *rand.Rand, events int) *trace.Trace {
	const (
		base      = trace.Addr(100) // mid-leaf: spans cross leaf boundaries
		addrSpace = 700
		maxRead   = 600
		maxWrite  = 8
	)
	b := trace.NewBuilder()
	numThreads := 2 + rng.Intn(3)
	threads := make([]*trace.ThreadBuilder, numThreads)
	for i := range threads {
		threads[i] = b.Thread(trace.ThreadID(i + 1))
	}
	routines := []string{"main", "scan", "merge", "fill", "leaf"}
	type span struct{ addr, size int }
	var reads []span
	// inRead picks a short range inside a random earlier read span, or
	// anywhere when there is none yet.
	inRead := func() (trace.Addr, uint32) {
		size := 1 + rng.Intn(maxWrite)
		if len(reads) == 0 {
			return base + trace.Addr(rng.Intn(addrSpace-size)), uint32(size)
		}
		s := reads[rng.Intn(len(reads))]
		off := rng.Intn(s.size)
		size = min(size, s.size-off)
		return base + trace.Addr(s.addr+off), uint32(size)
	}
	for i := 0; i < events; i++ {
		t := threads[rng.Intn(numThreads)]
		switch op := rng.Intn(20); {
		case op < 3:
			if t.Depth() < 6 {
				t.Call(routines[rng.Intn(len(routines))])
			}
		case op < 5:
			if t.Depth() > 0 {
				t.Ret()
			}
		case op < 11:
			size := 1 + rng.Intn(maxRead)
			addr := rng.Intn(addrSpace - size + 1)
			t.Read(base+trace.Addr(addr), uint32(size))
			reads = append(reads, span{addr, size})
		case op < 15:
			t.Write(inRead())
		case op < 17:
			t.SysRead(inRead())
		default:
			t.SysWrite(inRead())
		}
		if rng.Intn(10) == 0 {
			t.Work(uint64(1 + rng.Intn(20)))
		}
	}
	return b.Trace()
}

// TestLongSpanDifferential checks the profiler on long, partly overwritten
// read spans against the set-based oracle of Fig. 7 and against the
// per-cell reference read handler, under every input-source configuration.
func TestLongSpanDifferential(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		tr := longSpanTrace(rand.New(rand.NewSource(seed)), 300)
		if err := tr.Validate(); err != nil {
			t.Fatalf("seed %d: invalid generated trace: %v", seed, err)
		}
		for _, tc := range allConfigs {
			fast, err := Run(tr, tc.cfg)
			if err != nil {
				t.Fatalf("seed %d, %s: Run: %v", seed, tc.name, err)
			}
			fs := summarize(fast)
			slow, err := RunNaive(tr, tc.cfg)
			if err != nil {
				t.Fatalf("seed %d, %s: RunNaive: %v", seed, tc.name, err)
			}
			if ss := summarize(slow); !reflect.DeepEqual(fs, ss) {
				t.Fatalf("seed %d, %s: profiles diverge from the naive oracle\nfast:  %+v\nnaive: %+v", seed, tc.name, fs, ss)
			}
			ref, err := RunPerCell(tr, tc.cfg)
			if err != nil {
				t.Fatalf("seed %d, %s: RunPerCell: %v", seed, tc.name, err)
			}
			if rs := summarize(ref); !reflect.DeepEqual(fs, rs) {
				t.Fatalf("seed %d, %s: profiles diverge from the per-cell reference\nfast:     %+v\nper-cell: %+v", seed, tc.name, fs, rs)
			}
		}
	}
}
