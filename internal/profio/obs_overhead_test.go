package profio

// The observability layer's cost. The hot path pays one nil check plus one
// uncontended atomic add per event; everything state-derived is published
// at batch boundaries. Tier-1 gates that design with deterministic checks —
// zero added allocations per event here, exact event and batch counts in
// TestObsMetamorphicRandom — while the wall-clock overhead is a benchmark
// number (BenchmarkObsOverhead), never a pass/fail bound.

import (
	"bytes"
	"context"
	"testing"
	"time"

	"aprof/internal/core"
	"aprof/internal/obs"
	"aprof/internal/trace"
)

// TestObsAddsNoAllocsPerEvent feeds one decoded batch repeatedly to a bare
// profiler and to one with a registry attached, and compares the
// allocations per batch once both have warmed up on it: the registry must
// add none.
func TestObsAddsNoAllocsPerEvent(t *testing.T) {
	tr := trace.Random(trace.RandomConfig{Seed: 2, Ops: 4000})
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	dec, err := trace.ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	batch := dec.Events

	feed := func(p *core.Profiler) {
		for i := range batch {
			if err := p.HandleEvent(&batch[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	allocsPerBatch := func(reg *obs.Registry) float64 {
		cfg := core.DefaultConfig()
		cfg.Obs = reg
		p := core.NewProfiler(dec.Symbols, cfg)
		// Warm up: materialize the shadow chunks, thread states and
		// profiles the batch touches, so the measured feeds allocate only
		// what the per-event path itself allocates.
		for i := 0; i < 3; i++ {
			feed(p)
		}
		return testing.AllocsPerRun(5, func() { feed(p) })
	}
	bare := allocsPerBatch(nil)
	instr := allocsPerBatch(obs.NewRegistry())
	t.Logf("allocs per %d-event batch: bare=%v instrumented=%v", len(batch), bare, instr)
	if instr > bare {
		t.Errorf("registry adds %v allocations per %d-event batch (bare %v, instrumented %v)",
			instr-bare, len(batch), bare, instr)
	}
}

// BenchmarkObsOverhead reports the registry's wall-clock overhead on
// ProfileStream as overhead_pct. One run takes a few milliseconds, so
// instead of two long passes (where one load spike poisons a whole pass) it
// takes the minimum over many short strictly-alternating runs per
// configuration — each gets many chances to hit a quiet scheduler window,
// and alternation spreads sustained machine load evenly across both.
func BenchmarkObsOverhead(b *testing.B) {
	tr := trace.Random(trace.RandomConfig{Seed: 2, Ops: 20000})
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, tr); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()

	run := func(cfg core.Config) time.Duration {
		start := time.Now()
		ps, err := ProfileStream(context.Background(), bytes.NewReader(data), cfg, StreamOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if ps.Events == 0 {
			b.Fatal("empty profiles")
		}
		return time.Since(start)
	}
	instrCfg := core.DefaultConfig()
	instrCfg.Obs = obs.NewRegistry()

	const rounds = 150
	b.ResetTimer()
	var overhead float64
	for i := 0; i < b.N; i++ {
		bare, instr := time.Duration(-1), time.Duration(-1)
		for r := 0; r < rounds; r++ {
			if d := run(core.DefaultConfig()); bare < 0 || d < bare {
				bare = d
			}
			if d := run(instrCfg); instr < 0 || d < instr {
				instr = d
			}
		}
		overhead += (float64(instr) - float64(bare)) / float64(bare) * 100
	}
	b.ReportMetric(overhead/float64(b.N), "overhead_pct")
}
