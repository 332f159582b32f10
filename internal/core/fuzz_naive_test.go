package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"aprof/internal/shadow"
	"aprof/internal/trace"
)

// handoffTrace builds a small trace whose profile depends on cross-thread
// write resolution in both directions: thread 1 writes a cell that thread 2
// first-reads, a kernel fill partly overwritten by a thread write, and a
// write back from thread 2 to thread 1.
func handoffTrace() *trace.Trace {
	b := trace.NewBuilder()
	t1, t2 := b.Thread(1), b.Thread(2)
	t1.Call("writer")
	t2.Call("reader")
	t1.Write1(7)     // cross-thread communication target
	t2.Read1(7)      // induced first-read from thread 1's write
	t1.SysRead(9, 2) // kernel fill ...
	t1.Write1(9)     // ... immediately overwritten by the same thread
	t2.Read(9, 2)    // cell 9: thread-induced; cell 10: kernel-induced
	t2.Write1(7)     // write back the other way
	t1.Read1(7)      // induced first-read from thread 2
	t1.Ret()
	t2.Ret()
	return b.Trace()
}

// sameCountWrites builds a trace where a kernel write and a thread write to
// the same cell occur under the same global counter value (no counter tick
// between them): the read must be attributed to the later, thread, write.
func sameCountWrites() *trace.Trace {
	b := trace.NewBuilder()
	t1, t2 := b.Thread(1), b.Thread(2)
	t1.Call("producer")
	t2.Call("consumer")
	t1.SysRead(5, 1) // kernel writes cell 5
	t1.Write1(5)     // thread overwrites it; counter unchanged in between
	t2.Read1(5)      // must be thread-induced, not kernel-induced
	t1.Ret()
	t2.Ret()
	return b.Trace()
}

// deepStacks builds three six-deep per-thread stacks, each frame writing a
// cell another thread reads while unwinding; under Limits.MaxDepth 3 the
// depth cap engages on every thread.
func deepStacks() *trace.Trace {
	b := trace.NewBuilder()
	for id := trace.ThreadID(1); id <= 3; id++ {
		tb := b.Thread(id)
		for d := 0; d < 6; d++ {
			tb.Call("f")
			tb.Write1(trace.Addr(id))
		}
		for d := 0; d < 6; d++ {
			tb.Read1(trace.Addr(id%3 + 1))
			tb.Ret()
		}
	}
	return b.Trace()
}

// leafSpanTrace exercises the profiler's leaf-span walk: events of
// 2*LeafCells+5 cells that start mid-chunk and so cover three chunk
// boundaries; writes, reads, kernel fills and kernel drains straddling a
// boundary; cross-thread and kernel-induced reads of partly written spans;
// and a read and a kernel fill whose ranges wrap past the top of the
// address space to 0.
func leafSpanTrace() *trace.Trace {
	const (
		leaf = shadow.LeafCells
		long = 2*leaf + 5
		top  = trace.Addr(1<<64 - 3) // the last three cells before the wrap
	)
	b := trace.NewBuilder()
	t1, t2 := b.Thread(1), b.Thread(2)
	t1.Call("produce")
	t2.Call("consume")
	t1.Write(leaf-3, long)  // thread-written span over three boundaries
	t2.Read(leaf-7, long)   // mostly induced by t1, a few first reads
	t1.SysRead(3*leaf-2, 4) // kernel fill straddling a boundary ...
	t1.Write1(3*leaf - 1)   // ... partly overwritten by the thread
	t2.Read(3*leaf-4, long) // thread-, kernel-induced and first reads
	t1.SysRead(top, 8)      // kernel fill wrapping to 0..4
	t2.Read(top-1, long)    // read wrapping past the top
	t2.SysWrite(leaf-1, 3)  // kernel drain straddling a boundary
	t2.Call("rescan")
	t2.Read(0, long) // re-reads: discharges the ancestor's first reads
	t2.Write(2*leaf-2, 4)
	t2.Ret()
	t1.Read(top, 10)     // kernel-induced across the wrap, then first reads
	t1.Read(2*leaf-3, 6) // induced by t2's write across a boundary
	t1.Ret()
	t2.Ret()
	return b.Trace()
}

// naiveFuzzSeeds returns encoded traces that exercise the interesting
// machinery: cross-thread induced reads, same-counter write pairs, deep
// stacks, kernel I/O, synchronized hand-offs, leaf-chunk boundaries,
// multi-chunk and wrapping spans, long read spans whose runs of equal
// shadow pairs are split mid-span, and the v2 framing (small frames force
// resyncs on mutation). The first four traces and the long-span ones also
// back the committed corpus under testdata/fuzz/FuzzProfileNaive.
func naiveFuzzSeeds(tb testing.TB) [][]byte {
	encode := func(tr *trace.Trace, v2 bool) []byte {
		var buf bytes.Buffer
		var err error
		if v2 {
			err = trace.WriteBinary2Opts(&buf, tr, trace.V2Options{EventsPerFrame: 4})
		} else {
			err = trace.WriteBinary(&buf, tr)
		}
		if err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	var seeds [][]byte
	for _, tr := range []*trace.Trace{
		handoffTrace(),
		sameCountWrites(),
		deepStacks(),
		trace.Random(trace.RandomConfig{Seed: 11, Threads: 4, Ops: 120, Cells: 8}),
		syncedPipeline(6),
		leafBoundaryTrace(),
		randomTrace(rand.New(rand.NewSource(5)), 150),
		trace.Random(trace.RandomConfig{Seed: 12, Threads: 6, Ops: 200, Cells: 4}),
		leafSpanTrace(),
		longSpanTrace(rand.New(rand.NewSource(101)), 120),
		longSpanTrace(rand.New(rand.NewSource(102)), 120),
	} {
		seeds = append(seeds, encode(tr, false), encode(tr, true))
	}
	return seeds
}

// FuzzProfileNaive mutates raw trace bytes and checks the timestamping
// profiler against the set-based oracle of Fig. 7: every decodable,
// well-formed input must profile identically under each input-source
// configuration.
func FuzzProfileNaive(f *testing.F) {
	for _, data := range naiveFuzzSeeds(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.ReadBinary(bytes.NewReader(data))
		if err != nil {
			t.Skip() // undecodable mutants are the codec fuzzer's domain
		}
		if tr.Validate() != nil {
			t.Skip() // malformed traces are the fault policies' domain
		}
		// Keep per-input cost bounded (the oracle keeps a set per pending
		// activation), and stay inside the oracle's model: it has no fault
		// handling, so a negative thread id — well-formed to Validate but a
		// profiler fault — is out of scope.
		if len(tr.Events) > 1<<14 {
			t.Skip()
		}
		cells := 0
		for i := range tr.Events {
			if tr.Events[i].Thread < 0 {
				t.Skip()
			}
			cells += int(tr.Events[i].Size)
		}
		if cells > 1<<16 {
			t.Skip()
		}
		for _, tc := range allConfigs {
			fast, err := Run(tr, tc.cfg)
			if err != nil {
				t.Fatalf("%s: Run: %v", tc.name, err)
			}
			slow, err := RunNaive(tr, tc.cfg)
			if err != nil {
				t.Fatalf("%s: RunNaive: %v", tc.name, err)
			}
			if fs, ss := summarize(fast), summarize(slow); !reflect.DeepEqual(fs, ss) {
				t.Fatalf("%s: profiles diverge\nfast:  %+v\nnaive: %+v", tc.name, fs, ss)
			}
		}
	})
}
