package tools

import (
	"fmt"
	"math"
	"time"

	"aprof/internal/trace"
)

// The measurement harness reproduces the methodology behind Table 1 and
// Fig. 16: every tool analyses the same execution trace; its wall-clock time
// is compared against a "native" baseline that replays the same events with
// no analysis attached; its live data-structure footprint is compared
// against the traced program's own memory footprint.
//
// Two native baselines exist. The serialized baseline models a sequential
// program. The parallel baseline models the program on one core per thread
// (per-thread replays combined as their maximum) — this is the Fig. 16
// scenario: the native program exploits all cores while every Valgrind tool
// serializes threads, which is exactly why tool slowdowns grow with the
// thread count in the paper.

// nativeSink prevents the replay loops from being optimized away.
var nativeSink uint64

// replayEvents consumes events with trivial work, standing in for native
// execution of the traced operations.
func replayEvents(events []trace.Event) uint64 {
	var sum uint64
	for i := range events {
		ev := &events[i]
		sum += uint64(ev.Addr) + uint64(ev.Size) + uint64(ev.Kind)
	}
	return sum
}

// NativeTime measures the serialized native baseline: the best of `repeats`
// uninstrumented replays of the merged trace.
func NativeTime(tr *trace.Trace, repeats int) time.Duration {
	run, best := nativeProbe(tr, false)
	roundRobin(repeats, run)
	return best()
}

// NativeParallelTime measures the parallel native baseline: the wall-clock
// time of the program on hardware with one core per thread. Each thread's
// event stream is replayed and timed separately and the streams are combined
// as their maximum — the completion time under perfect parallelism. The
// per-thread measurement (rather than actual goroutines) keeps the
// experiment meaningful on any host, including single-core machines where
// real concurrency could not speed the baseline up; the paper's testbed was
// a 32-core Opteron, so the assumption matches its hardware, not ours.
func NativeParallelTime(tr *trace.Trace, repeats int) time.Duration {
	run, best := nativeProbe(tr, true)
	roundRobin(repeats, run)
	return best()
}

// nativeProbe returns one native replay of the trace — of each thread's
// stream separately, when parallel — and the baseline so far: the best
// replay time, or with parallel the longest per-thread best.
func nativeProbe(tr *trace.Trace, parallel bool) (run func() error, best func() time.Duration) {
	streams := [][]trace.Event{tr.Events}
	if parallel {
		streams = streams[:0]
		for _, part := range trace.Split(tr) {
			streams = append(streams, part.Events)
		}
	}
	bests := make([]time.Duration, len(streams))
	for i := range bests {
		bests[i] = math.MaxInt64
	}
	run = func() error {
		for i, events := range streams {
			start := time.Now()
			nativeSink += replayEvents(events)
			bests[i] = min(bests[i], time.Since(start))
		}
		return nil
	}
	best = func() time.Duration {
		var longest time.Duration
		for _, b := range bests {
			longest = max(longest, b)
		}
		return maxDuration(longest, time.Nanosecond)
	}
	return run, best
}

// Measurement is the raw cost of one tool on one trace.
type Measurement struct {
	Tool string
	// Duration is the best wall-clock time over the configured repeats.
	Duration time.Duration
	// SpaceBytes is the tool's data-structure footprint after the run.
	SpaceBytes int64
}

// toolProbe returns one timed run of a fresh tool over the trace and the
// measurement so far: the best time and the last run's space.
func toolProbe(f Factory, tr *trace.Trace) (run func() error, measurement func() Measurement) {
	m := Measurement{Tool: f.Name, Duration: math.MaxInt64}
	run = func() error {
		tool := f.New(tr.Symbols)
		start := time.Now()
		if err := Run(tool, tr); err != nil {
			return fmt.Errorf("tools: %s: %w", f.Name, err)
		}
		m.Duration = min(m.Duration, time.Since(start))
		m.SpaceBytes = tool.SpaceBytes()
		return nil
	}
	measurement = func() Measurement {
		out := m
		out.Duration = maxDuration(out.Duration, time.Nanosecond)
		return out
	}
	return run, measurement
}

// roundRobin takes the repeats of several measurements in rounds: every
// round calls each run once, in order (at least one round). Host noise
// that comes and goes — CPU steal on a shared machine — then falls on
// every measurement alike instead of on whichever one happened to be
// running back to back with its own repeats during it.
func roundRobin(rounds int, runs ...func() error) error {
	for r := 0; r < max(rounds, 1); r++ {
		for _, run := range runs {
			if err := run(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Overhead is one tool's slowdown and space overhead relative to native on
// one trace.
type Overhead struct {
	Tool string
	// Slowdown is toolTime / nativeTime.
	Slowdown float64
	// SpaceOverhead is (programFootprint + toolSpace) / programFootprint —
	// the ratio of the instrumented process's memory to the native one,
	// which is what the paper's space columns report.
	SpaceOverhead float64
}

// CompareConfig controls a comparison run.
type CompareConfig struct {
	// Repeats is the number of timed repetitions (best-of). 0 means 3.
	Repeats int
	// ParallelNative selects the parallel native baseline (Fig. 16) instead
	// of the serialized one.
	ParallelNative bool
	// Tools restricts the comparison to the named tools; empty means all.
	Tools []string
}

func (c CompareConfig) withDefaults() CompareConfig {
	if c.Repeats == 0 {
		c.Repeats = 3
	}
	return c
}

// Compare measures every tool on the trace and reports per-tool overheads.
// Native and the tools take their repeats round-robin (native, each tool,
// native, ...), and each keeps its best time.
func Compare(tr *trace.Trace, cfg CompareConfig) ([]Overhead, error) {
	cfg = cfg.withDefaults()
	footprint := int64(tr.MemoryFootprint()) * 8
	if footprint == 0 {
		footprint = 8
	}
	factories := All()
	if len(cfg.Tools) > 0 {
		factories = factories[:0:0]
		for _, name := range cfg.Tools {
			f, ok := ByName(name)
			if !ok {
				return nil, fmt.Errorf("tools: unknown tool %q", name)
			}
			factories = append(factories, f)
		}
	}
	nativeRun, native := nativeProbe(tr, cfg.ParallelNative)
	runs := []func() error{nativeRun}
	measurements := make([]func() Measurement, len(factories))
	for i, f := range factories {
		var run func() error
		run, measurements[i] = toolProbe(f, tr)
		runs = append(runs, run)
	}
	if err := roundRobin(cfg.Repeats, runs...); err != nil {
		return nil, err
	}
	out := make([]Overhead, 0, len(factories))
	for _, m := range measurements {
		m := m()
		out = append(out, Overhead{
			Tool:          m.Tool,
			Slowdown:      float64(m.Duration) / float64(native()),
			SpaceOverhead: float64(footprint+m.SpaceBytes) / float64(footprint),
		})
	}
	return out, nil
}

// GeoMean returns the geometric mean of the values (the aggregation Table 1
// uses across a benchmark suite).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
