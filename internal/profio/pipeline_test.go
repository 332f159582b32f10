package profio

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"aprof/internal/core"
	"aprof/internal/trace"
	"aprof/internal/workloads"
)

func encodeTrace(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func writeBytes(t *testing.T, ps *core.Profiles) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, ps); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestProfileStreamMatchesSequential checks the pipeline's determinism
// guarantee across batch sizes that exercise every batch boundary case
// (mid-batch EOF, exact multiple, single-event batches): random traces and
// the communication-heavy benchmark suites, with and without calling
// contexts, must stream to exactly the bytes of the in-memory profiler.
func TestProfileStreamMatchesSequential(t *testing.T) {
	traces := map[string]*trace.Trace{
		"random-6t":  trace.Random(trace.RandomConfig{Seed: 6, Threads: 6, Ops: 1200, Cells: 10}),
		"prod-cons":  workloads.ProducerConsumer(200),
		"omp-suite":  workloads.SuiteOMP()[0].Build(),
		"mysql-like": workloads.SuiteMySQL()[0].Build(),
	}
	for seed := int64(0); seed < 5; seed++ {
		traces[fmt.Sprintf("random-seed%d", seed)] = trace.Random(trace.RandomConfig{Seed: seed, Ops: 700})
	}
	ctxCfg := core.Config{ThreadInput: true, ContextSensitive: true}
	for name, tr := range traces {
		enc := encodeTrace(t, tr)
		for _, cfg := range []core.Config{core.DefaultConfig(), ctxCfg} {
			want, err := core.Run(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			wantBytes := writeBytes(t, want)
			for _, opts := range []StreamOptions{
				{},
				{BatchSize: 1},
				{BatchSize: 7, Depth: 1},
				{BatchSize: tr.Len()},
				{BatchSize: 64, Depth: 8},
			} {
				got, err := ProfileStream(context.Background(), bytes.NewReader(enc), cfg, opts)
				if err != nil {
					t.Fatalf("%s contexts=%v opts %+v: %v", name, cfg.ContextSensitive, opts, err)
				}
				if !bytes.Equal(writeBytes(t, got), wantBytes) {
					t.Errorf("%s contexts=%v opts %+v: pipelined profiles differ from sequential", name, cfg.ContextSensitive, opts)
				}
			}
		}
	}

	// A lenient stream whose v2 framing is corrupted mid-stream: the reader
	// resyncs, and the recovered events must profile identically whatever
	// the batch geometry — to the bytes of profiling the same leniently
	// decoded events in memory.
	tr := trace.Random(trace.RandomConfig{Seed: 9, Threads: 4, Ops: 900})
	var buf bytes.Buffer
	if err := trace.WriteBinary2Opts(&buf, tr, trace.V2Options{EventsPerFrame: 32}); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	enc[len(enc)/2] ^= 0x40 // corrupt one frame's payload; CRC catches it
	// A dropped frame can orphan later returns; count them instead of
	// aborting, as a lenient production run would.
	cfg := core.DefaultConfig()
	cfg.FaultPolicy = core.FaultCount
	br, err := trace.NewBinaryReaderOpts(bytes.NewReader(enc), trace.ReaderOptions{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewProfiler(br.Symbols(), cfg)
	for {
		var ev trace.Event
		ok, err := br.Next(&ev)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if err := p.HandleEvent(&ev); err != nil {
			t.Fatal(err)
		}
	}
	want, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	want.Corruption = br.Stats()
	if want.Corruption.FramesDropped == 0 {
		t.Fatal("corruption not detected; lenient case is vacuous")
	}
	wantBytes := writeBytes(t, want)
	for _, opts := range []StreamOptions{
		{Lenient: true},
		{Lenient: true, BatchSize: 1},
		{Lenient: true, BatchSize: 48},
		{Lenient: true, BatchSize: 7, Depth: 1},
	} {
		got, err := ProfileStream(context.Background(), bytes.NewReader(enc), cfg, opts)
		if err != nil {
			t.Fatalf("lenient opts %+v: %v", opts, err)
		}
		if !bytes.Equal(writeBytes(t, got), wantBytes) {
			t.Errorf("lenient opts %+v: pipelined profiles differ from sequential", opts)
		}
	}
}

// TestProfileStreamDecodeError checks that a truncated trace surfaces the
// decoder's error.
func TestProfileStreamDecodeError(t *testing.T) {
	tr := trace.Random(trace.RandomConfig{Seed: 1, Ops: 500})
	enc := encodeTrace(t, tr)
	_, err := ProfileStream(context.Background(), bytes.NewReader(enc[:len(enc)/2]), core.DefaultConfig(), StreamOptions{BatchSize: 16})
	if err == nil {
		t.Fatal("truncated trace profiled without error")
	}
}

// TestProfileStreamProfilerErrorWins checks first-error propagation: when
// the profiler fails on an early batch the pipeline reports that error even
// though the decoder would also fail later (the stream is truncated).
func TestProfileStreamProfilerErrorWins(t *testing.T) {
	// An unbalanced return makes the profiler fail on the first event.
	b := trace.NewBuilder()
	tb := b.Thread(1)
	tb.Call("f")
	tb.Ret()
	for i := 0; i < 32; i++ {
		tb.Read1(trace.Addr(i))
	}
	tr := b.Trace()
	// Drop the call, forging a bare return followed by reads.
	tr.Events = tr.Events[1:]
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	_, err := ProfileStream(context.Background(), bytes.NewReader(enc[:len(enc)-1]), core.DefaultConfig(), StreamOptions{BatchSize: 1})
	if err == nil {
		t.Fatal("expected an error")
	}
	if !errContains(err, "empty shadow stack") {
		t.Errorf("got decoder error %v, want the profiler's (first) error", err)
	}
}

func errContains(err error, substr string) bool {
	return err != nil && bytes.Contains([]byte(err.Error()), []byte(substr))
}

// TestProfileStreamCancellation checks that cancelling the context aborts
// the run with ctx's error.
func TestProfileStreamCancellation(t *testing.T) {
	tr := trace.Random(trace.RandomConfig{Seed: 2, Ops: 4000})
	enc := encodeTrace(t, tr)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ProfileStream(ctx, bytes.NewReader(enc), core.DefaultConfig(), StreamOptions{BatchSize: 8})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("got %v, want context.Canceled", err)
	}
}

// TestProfileStreamBadHeader checks header errors surface synchronously.
func TestProfileStreamBadHeader(t *testing.T) {
	_, err := ProfileStream(context.Background(), bytes.NewReader([]byte("nope")), core.DefaultConfig(), StreamOptions{})
	if err == nil {
		t.Fatal("bad magic accepted")
	}
	_, err = ProfileStream(context.Background(), bytes.NewReader(nil), core.DefaultConfig(), StreamOptions{})
	if err == nil || !errors.Is(err, io.EOF) {
		t.Fatalf("empty input: got %v, want EOF", err)
	}
}

// TestProfileStreamNoGoroutineLeak audits every pipeline exit path —
// success, decode error, profiler error, and cancellation — across batch
// sizes, checking the decoder goroutine is always joined. A leak here
// would accumulate across the many ProfileStream calls a long-lived
// ingestion service makes.
func TestProfileStreamNoGoroutineLeak(t *testing.T) {
	good := encodeTrace(t, trace.Random(trace.RandomConfig{Seed: 3, Ops: 2000}))

	// Profiler-error input: a bare return under the strict policy.
	b := trace.NewBuilder()
	tb := b.Thread(1)
	tb.Call("f")
	tb.Ret()
	tr := b.Trace()
	tr.Events = tr.Events[1:]
	var bad bytes.Buffer
	if err := trace.WriteBinary(&bad, tr); err != nil {
		t.Fatal(err)
	}

	runs := []struct {
		name string
		run  func(opts StreamOptions)
	}{
		{"success", func(opts StreamOptions) {
			if _, err := ProfileStream(context.Background(), bytes.NewReader(good), core.DefaultConfig(), opts); err != nil {
				t.Fatal(err)
			}
		}},
		{"decode error", func(opts StreamOptions) {
			if _, err := ProfileStream(context.Background(), bytes.NewReader(good[:len(good)/3]), core.DefaultConfig(), opts); err == nil {
				t.Fatal("truncated trace accepted")
			}
		}},
		{"profiler error", func(opts StreamOptions) {
			if _, err := ProfileStream(context.Background(), bytes.NewReader(bad.Bytes()), core.DefaultConfig(), opts); err == nil {
				t.Fatal("bare return accepted")
			}
		}},
		{"cancellation", func(opts StreamOptions) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := ProfileStream(ctx, bytes.NewReader(good), core.DefaultConfig(), opts); !errors.Is(err, context.Canceled) {
				t.Fatalf("got %v, want context.Canceled", err)
			}
		}},
	}

	before := runtime.NumGoroutine()
	for _, tc := range runs {
		for _, bs := range []int{1, 7, 64, 4096} {
			tc.run(StreamOptions{BatchSize: bs})
		}
	}
	// The pipeline joins its decoder before returning, so no settling time
	// should be needed; a short grace period keeps the test robust against
	// unrelated runtime goroutines winding down.
	for i := 0; ; i++ {
		if after := runtime.NumGoroutine(); after <= before {
			break
		} else if i >= 50 {
			t.Fatalf("goroutines leaked: %d before, %d after", before, after)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
