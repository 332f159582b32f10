package core

// Observability instrumentation of the profiling hot path (Figs. 8/9).
//
// The per-event cost is one predictable branch plus one plain increment —
// no atomic operation on the hot path:
//
//   - Flow metrics (events by kind) are counted into plain per-kind fields
//     from HandleEvent.
//   - State-derived metrics (shadow-stack depth high-water mark, tuple-table
//     size, shadow-memory chunk counts, hint hit rate, drop counters) are
//     maintained as the plain fields the algorithm already keeps.
//
// Both are published into the registry at batch boundaries (profio calls
// PublishObs after every batch) and at Finish. Monotonic quantities are
// published as deltas into counters so concurrent profilers sharing one
// registry (RunConcurrent) sum instead of clobbering.
//
// Nothing here is ever read back by the algorithm: enabling a registry
// cannot change profile output (proved byte-for-byte by the metamorphic
// tests in internal/profio).

import (
	"aprof/internal/obs"
	"aprof/internal/trace"
)

// Obs scope names used by the profiler's instrumentation.
const (
	// ObsScopeCore carries the event-loop metrics: events_<kind> counters,
	// drops_<category> counters, the stack_depth_hwm gauge, the
	// tuple_points gauge, and the checkpoint_{write,resume}_us histograms.
	ObsScopeCore = "core"
	// ObsScopeShadow carries the shadow-memory metrics: leaf_chunks,
	// hint_hits and hint_lookups counters (summed over the global write
	// shadow and every thread's read shadow).
	ObsScopeShadow = "shadow"
)

// profilerObs holds the pre-resolved metric handles of one profiler plus
// the last-published values of the delta-reported quantities.
type profilerObs struct {
	// Per-event flow counters, indexed by trace.Kind, with events_invalid
	// last; counts holds the events of each kind not yet published.
	events [trace.NumKinds + 1]*obs.Counter
	counts [trace.NumKinds + 1]uint64

	depthHWM    *obs.Gauge
	tuplePoints *obs.Gauge

	ckptWrite  *obs.Histogram
	ckptResume *obs.Histogram

	// Delta-published monotonic quantities.
	drops       [7]*obs.Counter
	lastDrops   DropStats
	leafChunks  *obs.Counter
	lastChunks  int
	hintHits    *obs.Counter
	hintLookups *obs.Counter
	lastHits    uint64
	lastLookups uint64
}

// dropCounters maps DropStats categories to metric names, in the fixed
// order used by profilerObs.drops and dropValues.
var dropCounterNames = [7]string{
	"drops_return_without_call",
	"drops_unknown_routine",
	"drops_bad_thread",
	"drops_after_finish",
	"drops_invalid_kind",
	"drops_depth_overflow",
	"drops_sampled_out",
}

func dropValues(d DropStats) [7]uint64 {
	return [7]uint64{
		d.ReturnWithoutCall, d.UnknownRoutine, d.BadThread,
		d.AfterFinish, d.InvalidKind, d.DepthOverflow, d.SampledOut,
	}
}

// newProfilerObs resolves every handle the profiler reports into. A nil
// registry yields a nil *profilerObs, and the single `p.obs != nil` branch
// at each instrumentation site compiles the layer down to a no-op.
func newProfilerObs(reg *obs.Registry) *profilerObs {
	if reg == nil {
		return nil
	}
	core := reg.Scope(ObsScopeCore)
	shadow := reg.Scope(ObsScopeShadow)
	o := &profilerObs{
		depthHWM:    core.Gauge("stack_depth_hwm"),
		tuplePoints: core.Gauge("tuple_points"),
		ckptWrite:   core.Histogram("checkpoint_write_us"),
		ckptResume:  core.Histogram("checkpoint_resume_us"),
		leafChunks:  shadow.Counter("leaf_chunks"),
		hintHits:    shadow.Counter("hint_hits"),
		hintLookups: shadow.Counter("hint_lookups"),
	}
	for k := 0; k < trace.NumKinds; k++ {
		o.events[k] = core.Counter("events_" + trace.Kind(k).String())
	}
	o.events[trace.NumKinds] = core.Counter("events_invalid")
	for i, name := range dropCounterNames {
		o.drops[i] = core.Counter(name)
	}
	return o
}

// countEvent is the per-event hot-path hook: one plain increment, an
// undefined kind counting as invalid.
func (o *profilerObs) countEvent(k trace.Kind) {
	o.counts[min(int(k), trace.NumKinds)]++
}

// PublishObs refreshes the state-derived metrics from the profiler's
// current data structures and publishes the events counted since the last
// call: the events by kind, the shadow-stack depth high-water mark, the
// tuple-table size (cost-plot points across all profiles, the analogue of
// aprof's tuple count), shadow-memory chunk and hint accounting, and the
// per-category drop counters. profio calls it after every profiled batch;
// Finish calls it once more so non-streaming runs report too. It is a no-op
// without a registry and never feeds back into the algorithm.
//
// Cost: O(threads + profiles), amortized over a batch of thousands of
// events — never per event.
func (p *Profiler) PublishObs() {
	o := p.obs
	if o == nil {
		return
	}
	for k, n := range o.counts {
		o.events[k].Add(n)
	}
	o.counts = [trace.NumKinds + 1]uint64{}
	o.depthHWM.SetMax(int64(p.depthHWM))

	points := 0
	for _, prof := range p.out.ByKey {
		points += len(prof.DRMSPoints) + len(prof.RMSPoints)
	}
	o.tuplePoints.Set(int64(points))

	chunks := 0
	var hits, lookups uint64
	observe := func(c int, h, l uint64) {
		chunks += c
		hits += h
		lookups += l
	}
	if p.w != nil {
		h, l := p.w.HintStats()
		observe(p.w.LeafChunks(), h, l)
	}
	for _, t := range p.threads {
		h, l := t.ts.HintStats()
		observe(t.ts.LeafChunks(), h, l)
	}
	// All three quantities are monotonic per profiler (chunks are never
	// freed, hint counters only grow), so the deltas are non-negative and
	// sum correctly across profilers sharing the registry.
	o.leafChunks.Add(uint64(chunks - o.lastChunks))
	o.lastChunks = chunks
	o.hintHits.Add(hits - o.lastHits)
	o.lastHits = hits
	o.hintLookups.Add(lookups - o.lastLookups)
	o.lastLookups = lookups

	cur := dropValues(p.out.Drops)
	last := dropValues(o.lastDrops)
	for i := range cur {
		o.drops[i].Add(cur[i] - last[i])
	}
	o.lastDrops = p.out.Drops
}
