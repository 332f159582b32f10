package core

// The deterministic merge layer of the sharded engine: profile union,
// calling-context renumbering, and checkpointing. Everything here exists to
// uphold one invariant — for every shard count, the merged output and every
// checkpoint are byte-identical to the sequential profiler's.

import (
	"fmt"
	"io"
	"sort"
	"time"

	"aprof/internal/shadow"
	"aprof/internal/trace"
)

// Finish completes the sharded run and returns the merged profiles.
//
// Per-shard profiles need no arithmetic merging: profiles are keyed by
// (routine, thread) and threads are partitioned across shards, so the union
// of the shard maps is exactly the sequential map — each *Profile was built
// by the sequential collect path from the same activation sequence. The only
// state that needs real merging is the calling-context tree (mergeContexts),
// whose node ids are assigned per shard and must be renumbered into the
// sequential creation order.
func (sp *ShardedProfiler) Finish() (*Profiles, error) {
	if sp.err != nil {
		return nil, sp.err
	}
	if sp.finished {
		return nil, fmt.Errorf("core: Finish called twice on sharded profiler")
	}
	// Per-shard Finish pops each shard's pending activations at their
	// threads' final costs. The pop order across threads never affects
	// output — every profile is thread-keyed, so it observes only its own
	// thread's completion order, which is the sequential one.
	minis := make([]*Profiles, len(sp.shards))
	for i, w := range sp.shards {
		out, err := w.p.Finish()
		if err != nil {
			sp.err = err
			return nil, err
		}
		minis[i] = out
	}
	sp.finished = true

	out := &Profiles{
		Symbols:      sp.syms,
		ByKey:        make(map[Key]*Profile),
		Events:       sp.events,
		Renumberings: sp.renumberings,
		Drops:        sp.drops,
	}
	for _, m := range minis {
		for k, prof := range m.ByKey {
			out.ByKey[k] = prof
		}
		out.Drops.Merge(&m.Drops)
	}
	if sp.cfg.ContextSensitive {
		sp.mergeContexts(out, minis)
	}
	sp.obs.publishFinish(sp)
	return out, nil
}

// ctxBirth records the creation of one shard-local calling-context node, at
// the global trace position of the call event that created it.
type ctxBirth struct {
	pos   int64
	shard int
	node  *contextNode
}

// mergeContexts renumbers the shard-local calling-context trees into one
// global tree with sequential node ids, and rekeys the ByContext profiles.
//
// Why replaying births in position order reproduces the sequential ids: the
// sequential table assigns ids in order of first creation, and a context
// path is created at the first call event reaching it (recursion-collapsed).
// That event is owned by exactly one shard, which created its local node at
// the same position; every other shard that reaches the same path does so
// only at later positions. Replaying all local births sorted by position
// through one fresh table therefore creates each distinct path at its
// sequential creation rank — child() deduplicates the later births — and
// ids are creation ranks in both engines.
func (sp *ShardedProfiler) mergeContexts(out *Profiles, minis []*Profiles) {
	var births []ctxBirth
	remap := make([]map[*contextNode]*contextNode, len(sp.shards))
	global := newContextTable()
	for i, w := range sp.shards {
		// w.ctxBirths[k] is the birth position of local node id k+1: pass B
		// appends one entry per call event that grew the local table, and
		// the table appends nodes in creation order after the root.
		remap[i] = map[*contextNode]*contextNode{w.p.ctx.root: global.root}
		for k, pos := range w.ctxBirths {
			births = append(births, ctxBirth{pos: pos, shard: i, node: w.p.ctx.nodes[k+1]})
		}
	}
	sort.Slice(births, func(i, j int) bool { return births[i].pos < births[j].pos })
	for _, b := range births {
		// The local parent was created strictly earlier in the same shard
		// (or is the root), so it is already mapped.
		gp := remap[b.shard][b.node.parent]
		remap[b.shard][b.node] = global.child(gp, b.node.rtn)
	}
	out.ByContext = make(map[ContextKey]*Profile)
	for i, m := range minis {
		local := sp.shards[i].p.ctx
		for key, prof := range m.ByContext {
			g := remap[i][local.nodes[key.Context]]
			out.ByContext[ContextKey{Context: g.id, Thread: key.Thread}] = prof
		}
	}
	out.Contexts = global.metas()
}

// WriteCheckpoint serializes the sharded engine's state in the sequential
// APCK format. The engine's state at a window boundary is definitionally the
// sequential profiler's state at the same event offset, so the document —
// and the file bytes — are identical to the sequential WriteCheckpoint at
// that offset, making checkpoints freely interchangeable between the two
// paths (sharded runs resume sequentially and vice versa).
func (sp *ShardedProfiler) WriteCheckpoint(w io.Writer, stream StreamState) error {
	start := time.Now()
	if sp.err != nil {
		return fmt.Errorf("core: cannot checkpoint a failed profiler: %w", sp.err)
	}
	if sp.finished {
		return fmt.Errorf("core: cannot checkpoint after Finish")
	}
	if sp.cfg.ContextSensitive {
		return fmt.Errorf("%w: context-sensitive profiling", ErrCheckpointUnsupported)
	}
	drops := sp.drops
	threads := make(map[trace.ThreadID]*threadState)
	byKey := make(map[Key]*Profile)
	for _, sw := range sp.shards {
		d := sw.p.out.Drops
		drops.Merge(&d)
		for id, t := range sw.p.threads {
			threads[id] = t
		}
		for k, prof := range sw.p.out.ByKey {
			byKey[k] = prof
		}
	}
	ckThreads, states := dumpThreadsCkpt(threads)
	data := checkpointData{
		Cfg:          fingerprint(sp.cfg),
		Count:        sp.count,
		Symbols:      sp.syms.Names(),
		Threads:      ckThreads,
		Profiles:     dumpProfilesCkpt(byKey),
		Events:       sp.events,
		Renumberings: sp.renumberings,
		Drops:        drops,
		MemSeq:       sp.memSeq,
		// CanShard excludes the event/memory limits, so the sampling
		// machinery is pinned at its initial state — the values the
		// sequential profiler would hold.
		MemStride:      1,
		NextEventCheck: 0,
		Stream:         stream,
	}
	var wts *shadow.Table[uint64]
	var wkind *shadow.Table[uint8]
	if sp.hasWts {
		wts, wkind = sp.baseWriteTables()
	}
	var err error
	if sp.ckptBuf, err = encodeCheckpoint(w, sp.ckptBuf, &data, wts, wkind, states); err != nil {
		return err
	}
	sp.obs.observeCkptWrite(time.Since(start))
	return nil
}

// baseWriteTables rebuilds the sequential wts/wkind tables from the write
// mirror, so the sharded checkpoint goes through the same leaf-run encoder
// as the sequential one. The mirror holds exactly the non-zero cells of the
// sequential tables at the window boundary — every recorded write carries a
// non-zero count (the counter starts at 1) and a non-none kind — so the
// rebuilt tables hold the same cells in the same leaves and encode to the
// same bytes, without sorting the mirror's map order.
func (sp *ShardedProfiler) baseWriteTables() (*shadow.Table[uint64], *shadow.Table[uint8]) {
	wts, wkind := shadow.New[uint64](), shadow.New[uint8]()
	for _, m := range sp.baseWrites {
		for a, rec := range m {
			wts.Store(a, rec.count)
			wkind.Store(a, rec.kind)
		}
	}
	return wts, wkind
}

// Events returns the number of events processed so far (for stream
// accounting, mirroring the sequential out.Events).
func (sp *ShardedProfiler) Events() int { return sp.events }

// Count exposes the current global counter value (for tests).
func (sp *ShardedProfiler) Count() uint64 { return sp.count }

// Shards returns the number of shards (for tests and logging).
func (sp *ShardedProfiler) Shards() int { return len(sp.shards) }

// PublishObs refreshes the state-derived metrics of every shard's profiler.
// The profio pipeline calls it at window boundaries, mirroring the
// per-batch PublishObs of the sequential path.
func (sp *ShardedProfiler) PublishObs() {
	for _, w := range sp.shards {
		w.p.PublishObs()
	}
}
