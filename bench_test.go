package aprof

// One benchmark per table and figure of the paper's evaluation: each bench
// regenerates its experiment end to end (workload generation + profiling +
// metric/figure computation) at quick scale, so `go test -bench=.` exercises
// every reproduction path and reports its cost. Micro-benchmarks at the
// bottom measure the profiler's per-event cost directly (the quantity behind
// Table 1).

import (
	"bytes"
	"context"
	"testing"

	"aprof/internal/core"
	"aprof/internal/experiments"
	"aprof/internal/tools"
	"aprof/internal/trace"
	"aprof/internal/vm"
	"aprof/internal/workloads"
)

func benchDriver(b *testing.B, name string) {
	b.Helper()
	d, ok := experiments.DriverByName(name)
	if !ok {
		b.Fatalf("no driver %q", name)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := d.Run(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Tables) == 0 && len(res.Figures) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkFig1Examples(b *testing.B)           { benchDriver(b, "fig1") }
func BenchmarkFig2ProducerConsumer(b *testing.B)   { benchDriver(b, "fig2") }
func BenchmarkFig3Streaming(b *testing.B)          { benchDriver(b, "fig3") }
func BenchmarkFig4MySQLSelect(b *testing.B)        { benchDriver(b, "fig4") }
func BenchmarkFig5VipsImGenerate(b *testing.B)     { benchDriver(b, "fig5") }
func BenchmarkFig6WbufferWriteThread(b *testing.B) { benchDriver(b, "fig6") }
func BenchmarkFig10SelectionSort(b *testing.B)     { benchDriver(b, "fig10") }
func BenchmarkFig11Richness(b *testing.B)          { benchDriver(b, "fig11") }
func BenchmarkFig12InputVolume(b *testing.B)       { benchDriver(b, "fig12") }
func BenchmarkFig13RoutineHistogram(b *testing.B)  { benchDriver(b, "fig13") }
func BenchmarkFig14InputCurves(b *testing.B)       { benchDriver(b, "fig14") }
func BenchmarkFig15Characterization(b *testing.B)  { benchDriver(b, "fig15") }
func BenchmarkFig16Scaling(b *testing.B)           { benchDriver(b, "fig16") }
func BenchmarkTable1Tools(b *testing.B)            { benchDriver(b, "table1") }

// benchTrace is a representative multithreaded trace with all three input
// kinds, reused by the per-event micro-benchmarks.
func benchTrace() *trace.Trace {
	bench := workloads.Benchmark{
		Name: "micro", Suite: "micro",
		Threads: 4, ComputeRoutines: 12, CommRoutines: 2, IORoutines: 2,
		CommVolume: 200, IOVolume: 200, Rounds: 40, Seed: 7,
	}
	return bench.Build()
}

// BenchmarkProfilerDRMS measures the full drms profiler on the shared
// micro-trace; the per-op figure is the cost of one trace event.
func BenchmarkProfilerDRMS(b *testing.B) {
	tr := benchTrace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(tr, core.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Len()), "events/op")
}

// BenchmarkProfilerRMS measures the rms-only configuration (plain aprof —
// no global shadow memory). The gap to BenchmarkProfilerDRMS is the paper's
// "~29% overhead for recognizing induced first-reads".
func BenchmarkProfilerRMS(b *testing.B) {
	tr := benchTrace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(tr, core.RMSOnlyConfig()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Len()), "events/op")
}

// BenchmarkProfilerSuite measures the drms profiler over the 15 suite
// benchmarks at ten times their default rounds — the session traces
// perfbench's ingest-bulk workload uploads, ~65 cells per read — so the
// analysis cost behind that workload can be reproduced outside perfbench.
// One op profiles all 15 traces; ns/event is the per-event cost.
func BenchmarkProfilerSuite(b *testing.B) {
	var traces []*trace.Trace
	events := 0
	for _, bench := range workloads.FullSuite() {
		tr := bench.Scaled(10).Build()
		traces = append(traces, tr)
		events += tr.Len()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range traces {
			if _, err := core.Run(tr, core.DefaultConfig()); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
	b.ReportMetric(float64(events), "events/op")
}

// BenchmarkProfilerNaive measures the set-based oracle, demonstrating why
// the timestamping algorithm exists.
func BenchmarkProfilerNaive(b *testing.B) {
	tr := benchTrace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunNaive(tr, core.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Len()), "events/op")
}

// BenchmarkProfilerDRMSRenumbering adds frequent counter renumbering.
func BenchmarkProfilerDRMSRenumbering(b *testing.B) {
	bench := workloads.Benchmark{
		Name: "micro-renumber", Suite: "micro",
		Threads: 4, ComputeRoutines: 12, CommRoutines: 2, IORoutines: 2,
		CommVolume: 200, IOVolume: 200, Rounds: 400, Seed: 7,
	}
	tr := bench.Build()
	cfg := core.DefaultConfig()
	cfg.CounterLimit = 1 << 11
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps, err := core.Run(tr, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if ps.Renumberings == 0 {
			b.Fatal("expected renumberings")
		}
	}
}

// BenchmarkComparatorTools measures each comparator tool on the shared
// micro-trace (the per-tool per-event analysis cost behind Table 1).
func BenchmarkComparatorTools(b *testing.B) {
	tr := benchTrace()
	for _, f := range tools.All() {
		f := f
		b.Run(f.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tool := f.New(tr.Symbols)
				if err := tools.Run(tool, tr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVMInterpreter measures MiniLang execution speed on each
// application of workloads.VMPrograms: the program is compiled once and each
// iteration is one instrumented run. steps/op is the bytecode instructions a
// run executes and ns/step the interpreter's cost per instruction, trace
// building included (the DBI substitute's per-instruction overhead).
func BenchmarkVMInterpreter(b *testing.B) {
	for _, p := range workloads.VMPrograms() {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			cp, err := vm.Compile(p.Source)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var steps uint64
			for i := 0; i < b.N; i++ {
				res, err := vm.RunProgram(cp, vm.Options{})
				if err != nil {
					b.Fatal(err)
				}
				steps = res.Steps
			}
			b.ReportMetric(float64(steps), "steps/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps)/float64(b.N), "ns/step")
		})
	}
}

// --- Concurrent pipeline benchmarks -------------------------------------

// benchStreamBytes encodes the shared micro-trace once; the stream
// benchmarks replay it from memory so only decode+profile cost is measured.
func benchStreamBytes(b *testing.B) []byte {
	b.Helper()
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, benchTrace()); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkStreamSequential is the pre-pipeline baseline: decode the whole
// trace into memory, then profile it.
func BenchmarkStreamSequential(b *testing.B) {
	data := benchStreamBytes(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := trace.ReadBinary(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Run(tr, core.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamPipelined measures the staged pipeline: a decoder goroutine
// overlaps event parsing with the profiler consuming batches, holding only
// O(BatchSize·Depth) events in memory.
func BenchmarkStreamPipelined(b *testing.B) {
	data := benchStreamBytes(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ProfileTraceStream(bytes.NewReader(data), DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMergeRuns profiles n independent random traces once, for the merge
// benchmarks.
func benchMergeRuns(b *testing.B, n int) []*Profiles {
	b.Helper()
	runs := make([]*Profiles, n)
	for i := range runs {
		tr := trace.Random(trace.RandomConfig{Seed: int64(i + 1), Ops: 2000})
		ps, err := core.Run(tr, core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		runs[i] = ps
	}
	return runs
}

// BenchmarkMergeRunsFold is the sequential left-fold merge baseline.
func BenchmarkMergeRunsFold(b *testing.B) {
	runs := benchMergeRuns(b, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ps := MergeRuns(runs...); ps.Events == 0 {
			b.Fatal("empty merge")
		}
	}
}

// BenchmarkRunConcurrent profiles 8 independent random traces with varying
// pool widths; workers=1 is the sequential baseline, workers=0 uses
// GOMAXPROCS. Their ratio is the pool's speedup (on a multi-core host; on
// a single core they coincide).
func BenchmarkRunConcurrent(b *testing.B) {
	const jobsN = 8
	traces := make([]*Trace, jobsN)
	for i := range traces {
		traces[i] = trace.Random(trace.RandomConfig{Seed: int64(i + 1), Ops: 4000})
	}
	for _, workers := range []int{1, 0} {
		name := "workers=gomaxprocs"
		if workers == 1 {
			name = "workers=1"
		}
		b.Run(name, func(b *testing.B) {
			jobs := make([]Job, jobsN)
			for i, tr := range traces {
				jobs[i] = TraceJob(tr)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ps, err := RunConcurrent(context.Background(), jobs, DefaultConfig(), workers)
				if err != nil {
					b.Fatal(err)
				}
				if ps.Events == 0 {
					b.Fatal("empty profiles")
				}
			}
		})
	}
}
