package core

// Sharded multi-core profiling (ROADMAP item 1).
//
// The timestamping algorithm of Figs. 8/9 looks inherently serial — it
// consumes one totally ordered trace — but almost all of its state is
// per-thread: the shadow memory ts_t, the shadow run-time stack S_t and the
// (routine, thread)-keyed profiles of a thread are touched only by that
// thread's events. The only cross-thread coupling is (a) the global counter,
// whose tick sequence is a pure function of the event kinds and so can be
// replayed independently by every shard, and (b) the global write shadow
// wts/wkind, which reads consult but never mutate and which only write and
// kernelToUser events update. "Multithreaded Input-Sensitive Profiling"
// (PAPERS.md) exploits the same decomposition.
//
// The sharded engine therefore splits a trace window by thread across
// nShards workers and processes it in two parallel passes with one barrier:
//
//	pass A   each shard scans the window and extracts its threads' global
//	         writes into a per-cell history of (position, count, kind)
//	         entries, partitioned by cell hash;
//	merge    the per-shard histories are folded into one per-cell index
//	         (parallel across partitions) — this index *is* the
//	         happens-before structure of the trace restricted to writes:
//	         program order within a thread plus the total trace order
//	         across threads, the same order trace.ReinterleaveSync
//	         preserves for properly synchronized traces;
//	pass B   each shard runs the full per-thread analysis over its own
//	         events, replaying the counter with advanceCount and resolving
//	         every induced-first-read test against the merged index (the
//	         latest write strictly before the reading event's position
//	         reconstructs wts/wkind exactly — see Profiler.resolve).
//
// Each shard's analysis state is a private sequential *Profiler (wts/wkind
// nil, resolve set), so per-thread behavior is the sequential code path by
// construction. A deterministic merge layer (shardmerge.go) unions the
// disjoint per-shard profiles and renumbers calling contexts into the
// sequential creation order, making the output byte-identical to the
// sequential engine for every shard count — the invariant the differential
// shard-equivalence suite pins.
//
// Unsupported configurations (see CanShard) fall back to the sequential
// engine; the fallback is trivially byte-identical.

import (
	"fmt"
	"sort"
	"sync"

	"aprof/internal/trace"
)

// writeRec is one entry of the cross-shard write-history index: a global
// write (by a thread or by the kernel) to one cell.
type writeRec struct {
	// pos is the event's global trace position. Positions disambiguate
	// writes that share a counter value (the counter only ticks on calls,
	// switches and kernel fills, so consecutive writes tie on count).
	pos int64
	// count is the global counter value at the write — the value wts would
	// hold after it.
	count uint64
	// kind is writerThread or writerKernel — the value wkind would hold.
	kind uint8
}

// shardWorker is one shard: a private sequential profiler owning a subset
// of the trace's threads, plus the per-window write-extraction state.
type shardWorker struct {
	id int
	// p is the shard's analysis state: a sequential Profiler whose global
	// shadow tables stay nil and whose induced-read test resolves against
	// the engine's merged write-history index. Everything per-thread —
	// shadow memories, stacks, profiles, drop accounting, the local
	// calling-context table — is the unmodified sequential machinery.
	p *Profiler
	// parts[h] holds the writes extracted by pass A for cells hashing to
	// partition h, per cell in position order.
	parts []map[trace.Addr][]writeRec
	// curPos is the global position of the event being profiled by pass B;
	// the resolve closure reads it (single goroutine per shard).
	curPos int64
	// ctxBirths[i] is the global position at which local context node id
	// i+1 was created, for the deterministic context renumbering of the
	// merge layer.
	ctxBirths []int64
	// lookups/resolved count the induced-read index consultations of the
	// current window (plain fields; folded into obs serially).
	lookups  uint64
	resolved uint64
	// faultErr/faultPos record the shard's first failure in the current
	// window (a strict-policy fault or an invariant violation).
	faultErr error
	faultPos int64
}

// ShardedProfiler profiles one totally ordered trace on several cores. It
// consumes the trace in windows (FeedWindow); between windows its canonical
// state — counter, event/memSeq accounting, the write mirror, and the
// per-shard thread states — is exactly the state the sequential profiler
// would hold at the same boundary, which is what makes its checkpoints
// interoperable with the sequential path in both directions.
type ShardedProfiler struct {
	cfg    Config
	syms   *trace.SymbolTable
	shards []*shardWorker
	parts  int
	hasWts bool

	// Canonical cross-shard state at the current window boundary.
	count        uint64
	events       int
	memSeq       uint64
	basePos      int64
	drops        DropStats // unowned-event drops (negative thread ids)
	renumberings int

	// baseWrites mirrors wts/wkind at the current window boundary,
	// partitioned by cell hash. It is the only form of the global write
	// shadow the shards read: shadow.Table lookups mutate hint state and
	// are single-goroutine by contract, so the engine keeps this plain
	// mirror instead, written only by the serial fold between windows.
	baseWrites []map[trace.Addr]writeRec
	// ckptBuf is WriteCheckpoint's encoding buffer, reused across calls.
	ckptBuf []byte
	// hist is the merged per-window write-history index, read-only during
	// pass B.
	hist []map[trace.Addr][]writeRec

	// Per-window scratch, owned by shard 0 during pass A and read by the
	// serial driver after the barrier.
	windowMemSeq   uint64
	windowEndCount uint64
	planFaultErr   error
	planFaultPos   int64

	err      error
	finished bool
	obs      *shardObs
}

// CanShard reports whether cfg is supported by the sharded engine. Counter
// renumbering (CounterLimit), the global sampling degradations
// (Limits.MaxEvents, Limits.MaxMemoryBytes) and the OnActivation stream all
// depend on a single global processing order that per-shard replay cannot
// reproduce cheaply; those configurations use the sequential engine.
// MaxDepth, fault policies, context sensitivity, point capping and obs are
// fully supported.
func CanShard(cfg Config) bool {
	return cfg.CounterLimit == 0 &&
		cfg.Limits.MaxEvents == 0 &&
		cfg.Limits.MaxMemoryBytes == 0 &&
		cfg.OnActivation == nil
}

// NewShardedProfiler returns a sharded profiler with nShards workers for
// traces built against syms. It fails when nShards < 2 or when cfg requires
// the sequential engine (see CanShard).
func NewShardedProfiler(syms *trace.SymbolTable, cfg Config, nShards int) (*ShardedProfiler, error) {
	if nShards < 2 {
		return nil, fmt.Errorf("core: sharded profiling needs at least 2 shards (got %d)", nShards)
	}
	if !CanShard(cfg) {
		return nil, fmt.Errorf("core: configuration requires the sequential engine (counter limit, event/memory limits and OnActivation cannot be sharded)")
	}
	sp := &ShardedProfiler{
		cfg:    cfg,
		syms:   syms,
		parts:  nShards,
		hasWts: cfg.ThreadInput || cfg.ExternalInput,
		// The counter starts at 1 for the same reason the sequential
		// profiler's does: 0 is the "never accessed" sentinel.
		count:      1,
		baseWrites: make([]map[trace.Addr]writeRec, nShards),
		hist:       make([]map[trace.Addr][]writeRec, nShards),
		obs:        newShardObs(cfg.Obs, nShards),
	}
	for i := range sp.baseWrites {
		sp.baseWrites[i] = make(map[trace.Addr]writeRec)
	}
	for i := 0; i < nShards; i++ {
		sp.shards = append(sp.shards, sp.newWorker(i))
	}
	return sp, nil
}

// NewShardedFromProfiler adopts the state of a (typically checkpoint-
// resumed) sequential profiler into a sharded engine: thread states and
// their profiles move to their owning shards, the global write shadow is
// mirrored, and the central accounting carries over. The profiler must be
// healthy and must not be used afterwards.
func NewShardedFromProfiler(p *Profiler, nShards int) (*ShardedProfiler, error) {
	if p.err != nil {
		return nil, fmt.Errorf("core: cannot shard a failed profiler: %w", p.err)
	}
	if p.finished {
		return nil, fmt.Errorf("core: cannot shard a finished profiler")
	}
	if p.cfg.ContextSensitive && len(p.ctx.nodes) > 1 {
		return nil, fmt.Errorf("core: cannot adopt a context-sensitive profiler with live contexts")
	}
	sp, err := NewShardedProfiler(p.syms, p.cfg, nShards)
	if err != nil {
		return nil, err
	}
	sp.count = p.count
	sp.events = p.out.Events
	sp.memSeq = p.memSeq
	sp.drops = p.out.Drops
	sp.renumberings = p.out.Renumberings
	if p.wts != nil {
		p.wts.ForEach(func(v uint64) bool { return v == 0 }, func(a trace.Addr, v uint64) {
			rec := writeRec{pos: -1, count: v, kind: p.wkind.Load(a)}
			sp.baseWrites[sp.part(a)][a] = rec
		})
	}
	for id, t := range p.threads {
		w := sp.shards[sp.owner(id)]
		w.p.threads[id] = t
		if len(t.stack) > w.p.depthHWM {
			w.p.depthHWM = len(t.stack)
		}
	}
	for k, prof := range p.out.ByKey {
		sp.shards[sp.owner(k.Thread)].p.out.ByKey[k] = prof
	}
	return sp, nil
}

// newWorker builds one shard: a sequential profiler with the global shadow
// tables replaced by the engine's merged write-history index.
func (sp *ShardedProfiler) newWorker(id int) *shardWorker {
	p := NewProfiler(sp.syms, sp.cfg)
	p.wts, p.wkind = nil, nil
	w := &shardWorker{id: id, p: p, parts: make([]map[trace.Addr][]writeRec, sp.parts)}
	p.resolve = func(a trace.Addr) (uint64, uint8) { return sp.resolveWrite(a, w) }
	return w
}

// owner maps a (non-negative) thread id to its shard. Any deterministic
// assignment yields identical output — the equivalence proof never uses the
// assignment — so a plain modulo keeps resume independent of the original
// run's shard count.
func (sp *ShardedProfiler) owner(id trace.ThreadID) int {
	return int(uint32(id) % uint32(len(sp.shards)))
}

// part maps a cell to its write-history partition.
func (sp *ShardedProfiler) part(a trace.Addr) int {
	return int(uint64(a) % uint64(sp.parts))
}

// resolveWrite reconstructs what wts/wkind would hold for cell a at the
// shard's current event: the latest global write strictly before that
// position — first in the current window's merged index, then in the
// window-boundary mirror. Writes by the reading thread itself are included
// on purpose: the sequential tables contain them too, and the subsequent
// old < w test discards them exactly as it does sequentially.
func (sp *ShardedProfiler) resolveWrite(a trace.Addr, w *shardWorker) (uint64, uint8) {
	w.lookups++
	if recs := sp.hist[sp.part(a)][a]; len(recs) > 0 {
		i := sort.Search(len(recs), func(i int) bool { return recs[i].pos >= w.curPos })
		if i > 0 {
			w.resolved++
			return recs[i-1].count, recs[i-1].kind
		}
	}
	if rec, ok := sp.baseWrites[sp.part(a)][a]; ok {
		w.resolved++
		return rec.count, rec.kind
	}
	return 0, writerNone
}

// advanceCount replays the sequential profiler's tick sequence: the counter
// in effect *after* ev is the value returned. Only calls of known routines,
// thread switches and kernelToUser events tick, and only with a
// non-negative thread id — faults are detected before the tick and
// unknown-routine calls fault without ticking.
func advanceCount(count uint64, ev *trace.Event, symsLen int) uint64 {
	if ev.Thread < 0 {
		return count
	}
	switch ev.Kind {
	case trace.KindSwitchThread, trace.KindKernelToUser:
		return count + 1
	case trace.KindCall:
		if int(ev.Routine) < symsLen {
			return count + 1
		}
	}
	return count
}

// FeedWindow processes one window of trace events (in trace order) across
// all shards. The engine's state after a successful window equals the
// sequential profiler's state after the same events. On error (a strict
// fault, or an invariant violation) the engine becomes unusable, exactly
// like the sequential profiler.
func (sp *ShardedProfiler) FeedWindow(events []trace.Event) error {
	if sp.err != nil {
		return sp.err
	}
	if sp.finished {
		return fmt.Errorf("core: window fed after Finish")
	}
	if len(events) == 0 {
		return nil
	}
	sp.windowMemSeq = 0
	sp.windowEndCount = sp.count
	sp.planFaultErr = nil
	for _, w := range sp.shards {
		w.faultErr = nil
		w.lookups, w.resolved = 0, 0
	}

	obsTimer := sp.obs.windowStart(len(events))

	// Pass A: parallel per-shard write extraction (plus, on shard 0, the
	// central structural accounting the serial driver folds afterwards).
	var wg sync.WaitGroup
	for _, w := range sp.shards {
		wg.Add(1)
		go func(w *shardWorker) {
			defer wg.Done()
			sp.passA(w, events)
		}(w)
	}
	wg.Wait()
	obsTimer.passADone()

	// Barrier: fold the per-shard extractions into the per-cell index,
	// parallel across partitions.
	sp.mergeHistories()
	obsTimer.mergeDone()

	// Pass B: parallel per-shard analysis against the merged index.
	for _, w := range sp.shards {
		wg.Add(1)
		go func(w *shardWorker) {
			defer wg.Done()
			sp.passB(w, events)
		}(w)
	}
	wg.Wait()
	obsTimer.passBDone()

	// The earliest failure across the plan scan and every shard is the
	// fault the sequential profiler would have stopped at: shards may have
	// processed events past it, but their state is discarded with the run.
	faultPos, faultErr := sp.planFaultPos, sp.planFaultErr
	for _, w := range sp.shards {
		if w.faultErr != nil && (faultErr == nil || w.faultPos < faultPos) {
			faultPos, faultErr = w.faultPos, w.faultErr
		}
	}
	if faultErr != nil {
		rel := faultPos - sp.basePos
		sp.err = fmt.Errorf("core: event %d (%s): %w", faultPos, events[rel].String(), faultErr)
		return sp.err
	}

	sp.foldWindow(len(events))
	obsTimer.done(sp)
	return nil
}

// passA extracts the shard's global writes from the window and, on shard 0
// only, maintains the central structural accounting: the end-of-window
// counter, the memory-event sequence (for checkpoint parity), and the
// handling of unowned events (negative thread ids, which no shard owns).
func (sp *ShardedProfiler) passA(w *shardWorker, events []trace.Event) {
	symsLen := sp.syms.Len()
	count := sp.count
	central := w.id == 0
	for i := range w.parts {
		w.parts[i] = nil
	}
	for i := range events {
		ev := &events[i]
		count = advanceCount(count, ev, symsLen)
		if ev.Thread < 0 {
			if central {
				sp.noteUnowned(ev, sp.basePos+int64(i))
			}
			continue
		}
		if central {
			// sampledOut() calls a sequential run would make: memory and
			// kernel-read events always reach it; kernelToUser only when a
			// global write shadow exists.
			switch ev.Kind {
			case trace.KindRead, trace.KindWrite, trace.KindUserToKernel:
				sp.windowMemSeq++
			case trace.KindKernelToUser:
				if sp.hasWts {
					sp.windowMemSeq++
				}
			}
		}
		if !sp.hasWts || sp.owner(ev.Thread) != w.id {
			continue
		}
		switch ev.Kind {
		case trace.KindWrite:
			pos := sp.basePos + int64(i)
			ev.Cells(func(a trace.Addr) { w.appendWrite(a, pos, count, writerThread) })
		case trace.KindKernelToUser:
			// count already includes this event's tick, matching the store
			// the sequential kernelFill performs after ticking.
			pos := sp.basePos + int64(i)
			ev.Cells(func(a trace.Addr) { w.appendWrite(a, pos, count, writerKernel) })
		}
	}
	if central {
		sp.windowEndCount = count
	}
}

// appendWrite records one write into the shard's partitioned extraction,
// deduplicating consecutive entries whose (count, kind) agree — a binary
// search for "latest entry before pos" returns the same answer either way.
func (w *shardWorker) appendWrite(a trace.Addr, pos int64, count uint64, kind uint8) {
	part := int(uint64(a) % uint64(len(w.parts)))
	m := w.parts[part]
	if m == nil {
		m = make(map[trace.Addr][]writeRec)
		w.parts[part] = m
	}
	recs := m[a]
	if n := len(recs); n > 0 && recs[n-1].count == count && recs[n-1].kind == kind {
		return
	}
	m[a] = append(recs, writeRec{pos: pos, count: count, kind: kind})
}

// noteUnowned handles an event no shard owns (negative thread id) exactly
// as the sequential profiler's pre-dispatch check would. Shard 0 calls it
// during pass A, so the accounting is deterministic and counted once.
func (sp *ShardedProfiler) noteUnowned(ev *trace.Event, pos int64) {
	switch sp.cfg.FaultPolicy {
	case FaultSkip:
	case FaultCount:
		sp.drops.BadThread++
	default:
		if sp.planFaultErr == nil {
			sp.planFaultPos = pos
			sp.planFaultErr = fmt.Errorf("negative thread id %d on %s event", ev.Thread, ev.Kind)
		}
	}
}

// mergeHistories folds the per-shard pass-A extractions into the merged
// per-cell index, parallel across partitions. Within a shard a cell's
// entries are already position-sorted; cells written by several shards are
// re-sorted after concatenation.
func (sp *ShardedProfiler) mergeHistories() {
	if !sp.hasWts {
		return
	}
	var wg sync.WaitGroup
	for part := 0; part < sp.parts; part++ {
		wg.Add(1)
		go func(part int) {
			defer wg.Done()
			var m map[trace.Addr][]writeRec
			for _, w := range sp.shards {
				src := w.parts[part]
				if src == nil {
					continue
				}
				if m == nil {
					m = make(map[trace.Addr][]writeRec, len(src))
				}
				for a, recs := range src {
					m[a] = append(m[a], recs...)
				}
			}
			for a, recs := range m {
				if !sort.SliceIsSorted(recs, func(i, j int) bool { return recs[i].pos < recs[j].pos }) {
					sort.Slice(recs, func(i, j int) bool { return recs[i].pos < recs[j].pos })
				}
				m[a] = recs
			}
			sp.hist[part] = m
		}(part)
	}
	wg.Wait()
}

// passB runs the shard's full per-thread analysis over the window.
func (sp *ShardedProfiler) passB(w *shardWorker, events []trace.Event) {
	symsLen := sp.syms.Len()
	count := sp.count
	trackCtx := sp.cfg.ContextSensitive
	for i := range events {
		ev := &events[i]
		count = advanceCount(count, ev, symsLen)
		if ev.Thread < 0 || ev.Kind == trace.KindSwitchThread || sp.owner(ev.Thread) != w.id {
			continue
		}
		w.curPos = sp.basePos + int64(i)
		var nodesBefore int
		if trackCtx && ev.Kind == trace.KindCall {
			nodesBefore = len(w.p.ctx.nodes)
		}
		if err := w.p.handleShardEvent(ev, count); err != nil {
			w.faultErr = err
			w.faultPos = w.curPos
			return
		}
		if trackCtx && ev.Kind == trace.KindCall && len(w.p.ctx.nodes) > nodesBefore {
			w.ctxBirths = append(w.ctxBirths, w.curPos)
		}
	}
}

// handleShardEvent is HandleEvent for the sharded path: the same dispatch
// and handler bodies, with the counter assigned from the precomputed replay
// instead of ticked, and without the gated machinery (limits sampling never
// degrades here — CanShard excludes it). count is the counter value in
// effect after this event (advanceCount's result).
func (p *Profiler) handleShardEvent(ev *trace.Event, count uint64) error {
	if p.err != nil {
		return p.err
	}
	p.out.Events++
	if p.obs != nil {
		p.obs.countEvent(ev.Kind)
	}
	switch ev.Kind {
	case trace.KindCall:
		if ev.Routine >= trace.RoutineID(p.syms.Len()) {
			return p.fault(&p.out.Drops.UnknownRoutine, "call of unknown routine id %d (symbol table has %d)", ev.Routine, p.syms.Len())
		}
		p.count = count
		p.pushCall(ev)
		return nil
	case trace.KindReturn:
		return p.onReturn(ev)
	case trace.KindRead, trace.KindUserToKernel:
		p.count = count
		t := p.thread(ev.Thread)
		t.cost = ev.Cost
		if p.sampledOut() {
			return nil
		}
		ev.Cells(func(a trace.Addr) { p.onRead(t, a) })
		return nil
	case trace.KindWrite:
		p.count = count
		t := p.thread(ev.Thread)
		t.cost = ev.Cost
		if p.sampledOut() {
			return nil
		}
		ev.Cells(func(a trace.Addr) { p.onWrite(t, a) })
		return nil
	case trace.KindKernelToUser:
		p.count = count
		p.kernelFill(ev)
		return nil
	case trace.KindAcquire, trace.KindRelease:
		p.thread(ev.Thread).cost = ev.Cost
		return nil
	default:
		return p.fault(&p.out.Drops.InvalidKind, "unhandled event kind %v", ev.Kind)
	}
}

// foldWindow commits a successfully profiled window: the canonical counter,
// event and memory-sequence accounting advance, and the window's write
// history collapses into the boundary mirror (parallel per partition; the
// shard goroutines have quiesced).
func (sp *ShardedProfiler) foldWindow(windowLen int) {
	sp.count = sp.windowEndCount
	sp.events += windowLen
	sp.memSeq += sp.windowMemSeq
	sp.basePos += int64(windowLen)
	if !sp.hasWts {
		return
	}
	var wg sync.WaitGroup
	for part := 0; part < sp.parts; part++ {
		if sp.hist[part] == nil {
			continue
		}
		wg.Add(1)
		go func(part int) {
			defer wg.Done()
			base := sp.baseWrites[part]
			for a, recs := range sp.hist[part] {
				base[a] = recs[len(recs)-1]
			}
			sp.hist[part] = nil
		}(part)
	}
	wg.Wait()
}

// ProfileSharded profiles a merged trace across nShards cores, producing
// output byte-identical to Run for every shard count. Configurations the
// sharded engine does not support, and shard counts below 2, run
// sequentially (trivially identical).
func ProfileSharded(tr *trace.Trace, cfg Config, nShards int) (*Profiles, error) {
	if nShards < 2 || !CanShard(cfg) {
		return Run(tr, cfg)
	}
	sp, err := NewShardedProfiler(tr.Symbols, cfg, nShards)
	if err != nil {
		return Run(tr, cfg)
	}
	if err := sp.FeedWindow(tr.Events); err != nil {
		return nil, err
	}
	return sp.Finish()
}
