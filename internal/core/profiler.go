package core

import (
	"fmt"
	"sort"

	"aprof/internal/obs"
	"aprof/internal/shadow"
	"aprof/internal/trace"
)

// Config controls a profiling run.
type Config struct {
	// ThreadInput enables recognizing induced first-reads caused by writes
	// of other threads. Disabling it reproduces the "external input only"
	// variant of Fig. 6b.
	ThreadInput bool
	// ExternalInput enables recognizing induced first-reads caused by
	// kernelToUser events (data from disk, network, ...).
	ExternalInput bool
	// CounterLimit, when non-zero, caps the global timestamp counter: when
	// count reaches the limit the profiler renumbers all live timestamps to
	// a dense range preserving their order (§3.2, counter overflows). A
	// zero limit uses a practically unreachable default.
	CounterLimit uint64
	// ContextSensitive additionally keys collected activations by calling
	// context, populating Profiles.ByContext and Profiles.Contexts. Direct
	// recursion is collapsed.
	ContextSensitive bool
	// MaxPointsPerProfile caps the number of distinct input-size points each
	// profile retains (0 = unlimited). When a profile exceeds the cap its
	// input sizes are progressively quantized (low-order bits dropped),
	// bounding the profiler's memory on long-running workloads while
	// preserving the cost-plot shape.
	MaxPointsPerProfile int
	// OnActivation, when non-nil, is invoked for every collected activation
	// in completion order, before aggregation. It supports streaming
	// consumers and the differential tests.
	OnActivation func(ActivationRecord)
	// FaultPolicy selects how semantically malformed events are handled
	// (see fault.go). The zero value is FaultStrict: fail on the first one.
	FaultPolicy FaultPolicy
	// Limits bounds the profiler's resource usage; zero values are
	// unlimited (see fault.go).
	Limits Limits
	// Obs, when non-nil, receives the profiler's observability metrics
	// (events by kind, drops, shadow-memory and stack high-water marks,
	// checkpoint latencies — see obs.go for the catalogue). The registry is
	// write-only for the profiler: enabling it never changes profile output.
	// Nil (the default) compiles the instrumentation down to one predictable
	// branch per event. A single registry may be shared by concurrent
	// profilers (RunConcurrent); counters then aggregate across them.
	Obs *obs.Registry
}

// ActivationRecord reports one completed routine activation.
type ActivationRecord struct {
	Routine trace.RoutineID
	Thread  trace.ThreadID
	// RMS and DRMS are the input-size estimates of the activation; DRMS >=
	// RMS always holds (Inequality 1 of the paper).
	RMS  uint64
	DRMS uint64
	// Cost is the inclusive cost (basic blocks between call and return).
	Cost uint64
	// FirstReads + InducedThread + InducedExternal = DRMS.
	FirstReads      uint64
	InducedThread   uint64
	InducedExternal uint64
}

func (a activation) record(rtn trace.RoutineID, thr trace.ThreadID) ActivationRecord {
	return ActivationRecord{
		Routine:         rtn,
		Thread:          thr,
		RMS:             a.rms,
		DRMS:            a.drms(),
		Cost:            a.cost,
		FirstReads:      a.first,
		InducedThread:   a.indThread,
		InducedExternal: a.indExternal,
	}
}

// DefaultConfig enables both dynamic input sources — the full drms metric.
func DefaultConfig() Config {
	return Config{ThreadInput: true, ExternalInput: true}
}

// RMSOnlyConfig disables both dynamic input sources; the drms then
// degenerates to the rms and no global write-timestamp shadow memory is
// maintained, mirroring plain aprof [5].
func RMSOnlyConfig() Config {
	return Config{}
}

// kernelBit is the low bit of a write-shadow cell, w[ℓ] = wts[ℓ]<<1 |
// kernelBit: set when the latest writer of ℓ was the kernel, clear when it
// was an application thread. A cell never written holds 0, so "no writer"
// is exactly w[ℓ] == 0 and its timestamp part w>>1 is the sentinel 0.
const kernelBit = 1

// practicalInfinity is the default counter limit and the cap on any
// configured one: far beyond any trace this implementation can process, yet
// small enough that limit+1 cannot overflow and that every timestamp fits a
// write-shadow cell after the shift by one.
const practicalInfinity = 1<<63 - 1

// noWrites is the write-shadow span of a leaf chunk that was never written:
// all zero, so no read through it is induced. It is only ever read.
var noWrites [shadow.LeafCells]uint64

// activation carries the values collected when an activation completes.
type activation struct {
	first       uint64
	indThread   uint64
	indExternal uint64
	rms         uint64
	cost        uint64
}

func (a activation) drms() uint64 { return a.first + a.indThread + a.indExternal }

// frame is one entry of a thread's shadow run-time stack. The counter fields
// hold *partial* values maintained under Invariant 2: the true metric of the
// i-th pending activation is the sum of the partial values from i to the top
// of the stack.
type frame struct {
	rtn       trace.RoutineID
	ts        uint64
	entryCost uint64
	ctx       *contextNode
	// Partial metric counters. int64: the ancestor decrement of the
	// first-read branch makes individual partial values transiently
	// negative in legal executions only in the presence of bugs; keeping
	// them signed lets the differential tests detect that instead of
	// silently wrapping.
	first       int64
	indThread   int64
	indExternal int64
	rms         int64
}

// threadState holds the thread-specific structures of the algorithm: the
// shadow memory ts_t of latest accesses and the shadow run-time stack S_t.
type threadState struct {
	id    trace.ThreadID
	ts    *shadow.Table[uint64]
	stack []frame
	cost  uint64 // last observed cumulative cost
	// overflow counts calls dropped because the stack hit Limits.MaxDepth;
	// matching returns decrement it instead of popping, so profiling resumes
	// exactly when the overflowing subtree unwinds.
	overflow int
}

// Profiler implements the read/write timestamping algorithm of Figs. 8 and 9
// over a merged trace, computing rms and drms side by side.
type Profiler struct {
	cfg  Config
	syms *trace.SymbolTable

	// count is the global counter of thread switches, routine activations
	// and kernelToUser events.
	count uint64
	limit uint64

	// w is the global write shadow: w[ℓ] = wts[ℓ]<<1 | kernelBit holds the
	// latest-write timestamp of ℓ together with whether that writer was an
	// application thread or the kernel, for the thread/external attribution
	// of induced first-reads — one table, so one lookup per leaf span. It
	// stays nil when neither dynamic input source is enabled (rms-only
	// mode), mirroring aprof's lack of a global shadow memory.
	w *shadow.Table[uint64]

	threads map[trace.ThreadID]*threadState
	ctx     *contextTable
	out     *Profiles
	err     error

	// finished is set by Finish; later events are AfterFinish faults.
	finished bool
	// Memory-event sampling state for the Limits degradation: memory events
	// are numbered by memSeq and processed only when memSeq is a multiple of
	// memStride (1 = no sampling). nextEventCheck is the event count at
	// which MaxEvents next doubles the stride. All three are part of the
	// checkpointed state, keeping degraded runs deterministic across resume.
	memSeq         uint64
	memStride      uint64
	nextEventCheck uint64

	// depthHWM is the deepest shadow stack observed across all threads —
	// maintained unconditionally (one compare per call event) and published
	// through obs. Not checkpointed: a resumed run restarts the high-water
	// mark from its restored stacks.
	depthHWM int
	// obs holds the pre-resolved metric handles, nil when Config.Obs is nil.
	obs *profilerObs
	// ckpt is the checkpoint encoder's buffer and sort scratch, kept across
	// calls so a steady checkpoint cadence stops allocating.
	ckpt ckptScratch
}

// NewProfiler returns a profiler for traces built against syms.
func NewProfiler(syms *trace.SymbolTable, cfg Config) *Profiler {
	limit := cfg.CounterLimit
	if limit == 0 || limit > practicalInfinity {
		limit = practicalInfinity
	}
	p := &Profiler{
		cfg: cfg,
		// count starts at 1, not 0: timestamp 0 is the "never accessed"
		// sentinel (Fig. 8, line 6), so operations of the very first
		// scheduling quantum — before any call or thread switch has bumped
		// the counter — must not stamp 0 into the shadow memories, or a
		// write there would be invisible to the induced first-read test.
		count:   1,
		syms:    syms,
		limit:   limit,
		threads: make(map[trace.ThreadID]*threadState),
		out: &Profiles{
			Symbols: syms,
			ByKey:   make(map[Key]*Profile),
		},
	}
	p.obs = newProfilerObs(cfg.Obs)
	p.memStride = 1
	if cfg.Limits.MaxEvents > 0 {
		p.nextEventCheck = uint64(cfg.Limits.MaxEvents)
	}
	if cfg.ThreadInput || cfg.ExternalInput {
		p.w = shadow.New[uint64]()
	}
	if cfg.ContextSensitive {
		p.ctx = newContextTable()
		p.out.ByContext = make(map[ContextKey]*Profile)
	}
	return p
}

// Run profiles a merged trace with the given configuration.
func Run(tr *trace.Trace, cfg Config) (*Profiles, error) {
	p := NewProfiler(tr.Symbols, cfg)
	if err := p.Feed(tr); err != nil {
		return nil, err
	}
	return p.Finish()
}

// Feed processes all events of tr in order.
func (p *Profiler) Feed(tr *trace.Trace) error {
	for i := range tr.Events {
		if err := p.HandleEvent(&tr.Events[i]); err != nil {
			return fmt.Errorf("core: event %d (%s): %w", i, tr.Events[i].String(), err)
		}
	}
	return nil
}

// HandleEvent processes one event. Malformed events are handled per the
// configured FaultPolicy; Limits degradation (depth capping, memory-event
// sampling) applies under every policy.
func (p *Profiler) HandleEvent(ev *trace.Event) error {
	if p.err != nil {
		return p.err
	}
	if p.finished {
		return p.fault(&p.out.Drops.AfterFinish, "event %s fed after Finish", ev.Kind)
	}
	p.out.Events++
	if p.obs != nil {
		p.obs.countEvent(ev.Kind)
	}
	p.checkLimits()
	if ev.Thread < 0 {
		return p.fault(&p.out.Drops.BadThread, "negative thread id %d on %s event", ev.Thread, ev.Kind)
	}
	switch ev.Kind {
	case trace.KindCall:
		return p.onCall(ev)
	case trace.KindReturn:
		return p.onReturn(ev)
	case trace.KindSwitchThread:
		return p.tick()
	case trace.KindRead:
		t := p.thread(ev.Thread)
		t.cost = ev.Cost
		if p.sampledOut() {
			return nil
		}
		p.readRange(t, ev.Addr, ev.Size)
		return nil
	case trace.KindWrite:
		t := p.thread(ev.Thread)
		t.cost = ev.Cost
		if p.sampledOut() {
			return nil
		}
		p.writeRange(t, ev.Addr, ev.Size)
		return nil
	case trace.KindUserToKernel:
		// Read memory accesses by the operating system are regarded as read
		// operations implicitly performed by the thread, as if the system
		// call were a normal subroutine (Fig. 9).
		t := p.thread(ev.Thread)
		t.cost = ev.Cost
		if p.sampledOut() {
			return nil
		}
		p.readRange(t, ev.Addr, ev.Size)
		return nil
	case trace.KindKernelToUser:
		return p.onKernelToUser(ev)
	case trace.KindAcquire, trace.KindRelease:
		// Synchronization events are instrumentation for the race-detection
		// comparators; the profiler ignores them (the paper's simplifying
		// assumption of not considering memory accesses due to semaphore
		// operations).
		p.thread(ev.Thread).cost = ev.Cost
		return nil
	default:
		return p.fault(&p.out.Drops.InvalidKind, "unhandled event kind %v", ev.Kind)
	}
}

// checkLimits updates the sampling degradation state from the MaxEvents and
// MaxMemoryBytes limits. Both triggers depend only on the event count and on
// deterministic size estimates, so a resumed run degrades at exactly the
// same events as an uninterrupted one.
func (p *Profiler) checkLimits() {
	if p.nextEventCheck > 0 && uint64(p.out.Events) > p.nextEventCheck && p.memStride < maxMemStride {
		p.memStride *= 2
		p.nextEventCheck *= 2
	}
	if p.cfg.Limits.MaxMemoryBytes > 0 && p.out.Events%memCheckInterval == 0 &&
		p.memStride < maxMemStride && p.liveBytesEstimate() > p.cfg.Limits.MaxMemoryBytes {
		p.memStride *= 2
	}
}

// sampledOut numbers the memory event and reports whether the sampling
// degradation sheds it. Shed events still updated their thread's cost (the
// caller does that first), so costs stay exact; only metric values degrade.
func (p *Profiler) sampledOut() bool {
	p.memSeq++
	if p.memStride > 1 && p.memSeq%p.memStride != 0 {
		p.out.Drops.SampledOut++
		return true
	}
	return false
}

// liveBytesEstimate is the deterministic variant of SpaceBytes used by the
// MaxMemoryBytes limit: it sizes stacks by length instead of capacity, so a
// checkpoint-resumed run (whose slice capacities differ) makes identical
// sampling decisions.
func (p *Profiler) liveBytesEstimate() int64 {
	var total int64
	if p.w != nil {
		total += p.w.SizeBytes(8)
	}
	const frameSize = 8 * 8
	for _, t := range p.threads {
		total += t.ts.SizeBytes(8)
		total += int64(len(t.stack)) * frameSize
	}
	const statsSize = 5 * 8
	for _, prof := range p.out.ByKey {
		total += int64(len(prof.DRMSPoints)+len(prof.RMSPoints)) * (statsSize + 16)
	}
	return total
}

// Finish completes the run: any still-pending activations are collected as
// if they returned at their thread's last observed cost, and the profiles
// are returned. The profiler must not be fed further events afterwards.
func (p *Profiler) Finish() (*Profiles, error) {
	if p.err != nil {
		return nil, p.err
	}
	ids := make([]trace.ThreadID, 0, len(p.threads))
	for id := range p.threads {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		t := p.threads[id]
		for len(t.stack) > 0 {
			p.popFrame(t, t.cost)
		}
	}
	if p.err != nil {
		return nil, p.err
	}
	if p.ctx != nil {
		p.out.Contexts = p.ctx.metas()
	}
	p.finished = true
	p.PublishObs()
	return p.out, nil
}

func (p *Profiler) thread(id trace.ThreadID) *threadState {
	t, ok := p.threads[id]
	if !ok {
		t = &threadState{id: id, ts: shadow.New[uint64]()}
		p.threads[id] = t
	}
	return t
}

// tick increments the global counter, renumbering timestamps if the counter
// limit is reached.
func (p *Profiler) tick() error {
	if p.count+1 >= p.limit {
		if err := p.renumber(); err != nil {
			p.err = err
			return err
		}
	}
	p.count++
	return nil
}

func (p *Profiler) onCall(ev *trace.Event) error {
	if ev.Routine >= trace.RoutineID(p.syms.Len()) {
		return p.fault(&p.out.Drops.UnknownRoutine, "call of unknown routine id %d (symbol table has %d)", ev.Routine, p.syms.Len())
	}
	if err := p.tick(); err != nil {
		return err
	}
	t := p.thread(ev.Thread)
	t.cost = ev.Cost
	if max := p.cfg.Limits.MaxDepth; max > 0 && (t.overflow > 0 || len(t.stack) >= max) {
		// Depth limit hit: the frame is not pushed. The overflow counter
		// pairs the dropped call with its future return.
		t.overflow++
		p.out.Drops.DepthOverflow++
		return nil
	}
	f := frame{
		rtn:       ev.Routine,
		ts:        p.count,
		entryCost: ev.Cost,
	}
	if p.ctx != nil {
		parent := p.ctx.root
		if len(t.stack) > 0 {
			parent = t.stack[len(t.stack)-1].ctx
		}
		f.ctx = p.ctx.child(parent, ev.Routine)
	}
	t.stack = append(t.stack, f)
	if len(t.stack) > p.depthHWM {
		p.depthHWM = len(t.stack)
	}
	return nil
}

func (p *Profiler) onReturn(ev *trace.Event) error {
	t := p.thread(ev.Thread)
	t.cost = ev.Cost
	if t.overflow > 0 {
		// Return of a call dropped by the depth limit.
		t.overflow--
		return nil
	}
	if len(t.stack) == 0 {
		return p.fault(&p.out.Drops.ReturnWithoutCall, "return on thread %d with empty shadow stack", ev.Thread)
	}
	p.popFrame(t, ev.Cost)
	return p.err
}

// popFrame collects the topmost activation of t at return cost retCost and
// folds its partial counters into its parent, preserving Invariant 2.
func (p *Profiler) popFrame(t *threadState, retCost uint64) {
	top := len(t.stack) - 1
	f := &t.stack[top]
	if f.first < 0 || f.indThread < 0 || f.indExternal < 0 || f.rms < 0 {
		p.err = fmt.Errorf("core: negative partial metric at return of %s on thread %d (first=%d indThread=%d indExternal=%d rms=%d): invariant violated",
			p.syms.Name(f.rtn), t.id, f.first, f.indThread, f.indExternal, f.rms)
		return
	}
	key := Key{Routine: f.rtn, Thread: t.id}
	prof := p.out.ByKey[key]
	if prof == nil {
		prof = newProfile(f.rtn, t.id)
		prof.maxPoints = p.cfg.MaxPointsPerProfile
		p.out.ByKey[key] = prof
	}
	cost := uint64(0)
	if retCost > f.entryCost {
		cost = retCost - f.entryCost
	}
	a := activation{
		first:       uint64(f.first),
		indThread:   uint64(f.indThread),
		indExternal: uint64(f.indExternal),
		rms:         uint64(f.rms),
		cost:        cost,
	}
	prof.collect(a)
	if p.ctx != nil {
		ckey := ContextKey{Context: f.ctx.id, Thread: t.id}
		cprof := p.out.ByContext[ckey]
		if cprof == nil {
			cprof = newProfile(f.rtn, t.id)
			cprof.maxPoints = p.cfg.MaxPointsPerProfile
			p.out.ByContext[ckey] = cprof
		}
		cprof.collect(a)
	}
	if p.cfg.OnActivation != nil {
		p.cfg.OnActivation(a.record(f.rtn, t.id))
	}
	if top > 0 {
		parent := &t.stack[top-1]
		parent.first += f.first
		parent.indThread += f.indThread
		parent.indExternal += f.indExternal
		parent.rms += f.rms
	}
	t.stack = t.stack[:top]
}

// readRange implements the read(ℓ,t) handler of Fig. 8 for the size cells
// from addr, in ascending address order (wrapping past the top of the
// address space to 0, as trace.Event.Cells does), one leaf-aligned span at
// a time: each span resolves the thread's ts leaf and the write-shadow leaf
// once. Within one read event the stack and the counter are fixed, so a
// cell's verdict depends only on its pair (ts_t[ℓ], w[ℓ]): each maximal run
// of cells with equal pairs is classified once, by onReadRun, and the
// span's ts slots are then stamped with the counter. The cells of a span
// are distinct, so no stamp is seen by a later cell of the same event.
func (p *Profiler) readRange(t *threadState, addr trace.Addr, size uint32) {
	for n := uint64(size); n > 0; {
		ts := t.ts.Span(addr, n)
		var w []uint64
		if p.w != nil {
			w = p.w.PeekSpan(addr, uint64(len(ts)))
		}
		if w == nil {
			w = noWrites[:len(ts)]
		}
		if len(t.stack) > 0 {
			w = w[:len(ts)] // drops the bounds checks on w[j] below
			for i := 0; i < len(ts); {
				old, wi := ts[i], w[i]
				j := i + 1
				for j < len(ts) && ts[j] == old && w[j] == wi {
					j++
				}
				p.onReadRun(t, old, wi, int64(j-i))
				i = j
			}
		}
		fill(ts, p.count)
		addr += trace.Addr(len(ts))
		n -= uint64(len(ts))
	}
}

// onReadRun classifies k read cells of the topmost activation of t that
// share the latest-access timestamp old = ts_t[ℓ] and the write-shadow cell
// w = w[ℓ] (0 when ℓ was never written or no write shadow is kept). It is
// the read(ℓ,t) handler of Fig. 8, extended to classify the source of
// induced first-reads and to maintain the rms in parallel, applied to k
// cells at once: every cell of the run gets the same verdict and the same
// deepest ancestor, so each counter moves by k instead of by 1.
func (p *Profiler) onReadRun(t *threadState, old, w uint64, k int64) {
	top := &t.stack[len(t.stack)-1]
	induced := false
	if old < w>>1 {
		// The cells were written, by some thread different from t or by
		// the kernel, since t's latest access (a write by t itself would
		// have set ts_t[ℓ] = wts[ℓ]).
		if w&kernelBit == 0 {
			if p.cfg.ThreadInput {
				induced = true
				top.indThread += k
			}
		} else if p.cfg.ExternalInput {
			induced = true
			top.indExternal += k
		}
	}
	if old >= top.ts {
		return
	}
	// A first access for the topmost activation: charge it, and discharge
	// the deepest ancestor that had already accessed the cells (Fig. 8,
	// lines 4-10) — for the drms only when the read is not induced, for
	// the rms (aprof [5]) always.
	var anc *frame
	if old != 0 {
		if i, ok := deepestAncestor(t.stack, old); ok {
			anc = &t.stack[i]
		}
	}
	if !induced {
		top.first += k
		if anc != nil {
			anc.first -= k
		}
	}
	top.rms += k
	if anc != nil {
		anc.rms -= k
	}
}

// writeRange implements the write(ℓ,t) handler of Fig. 8 for the size
// cells from addr, one leaf-aligned span at a time. Writes mark the cells
// as produced by the thread: they update the local timestamp (so later
// local reads are not first accesses) and the global write timestamp (so
// reads by *other* threads become induced first-reads).
func (p *Profiler) writeRange(t *threadState, addr trace.Addr, size uint32) {
	for n := uint64(size); n > 0; {
		ts := t.ts.Span(addr, n)
		fill(ts, p.count)
		if p.w != nil {
			fill(p.w.Span(addr, uint64(len(ts))), p.count<<1)
		}
		addr += trace.Addr(len(ts))
		n -= uint64(len(ts))
	}
}

// onKernelToUser implements the kernelToUser handler of Fig. 9: the counter
// is incremented once and every buffer cell receives a global write
// timestamp larger than any thread-specific timestamp, forcing the induced
// first-read test to succeed on subsequent reads.
func (p *Profiler) onKernelToUser(ev *trace.Event) error {
	if err := p.tick(); err != nil {
		return err
	}
	t := p.thread(ev.Thread)
	t.cost = ev.Cost
	if p.w == nil {
		return nil
	}
	// The counter tick is kept even when the event is sampled out: the
	// global count mirrors the event structure, not the metric state.
	if p.sampledOut() {
		return nil
	}
	addr := ev.Addr
	for n := uint64(ev.Size); n > 0; {
		w := p.w.Span(addr, n)
		fill(w, p.count<<1|kernelBit)
		addr += trace.Addr(len(w))
		n -= uint64(len(w))
	}
	return nil
}

func fill(cells []uint64, v uint64) {
	for i := range cells {
		cells[i] = v
	}
}

// deepestAncestor returns the maximum index i such that stack[i].ts <= ts.
// Stack timestamps are strictly increasing, so this is a binary search —
// the O(log d_t) step of the algorithm.
func deepestAncestor(stack []frame, ts uint64) (int, bool) {
	// sort.Search finds the first index with stack[i].ts > ts.
	i := sort.Search(len(stack), func(i int) bool { return stack[i].ts > ts })
	if i == 0 {
		return 0, false
	}
	return i - 1, true
}

// SpaceBytes estimates the live memory of the profiler's data structures:
// shadow memories, shadow stacks, and collected profiles. Used by the
// comparator harness for the space-overhead experiments.
func (p *Profiler) SpaceBytes() int64 {
	var total int64
	if p.w != nil {
		total += p.w.SizeBytes(8)
	}
	const frameSize = 8 * 8
	for _, t := range p.threads {
		total += t.ts.SizeBytes(8)
		total += int64(cap(t.stack)) * frameSize
	}
	const statsSize = 5 * 8
	const profileBase = 16 * 8
	for _, prof := range p.out.ByKey {
		total += profileBase
		total += int64(len(prof.DRMSPoints)+len(prof.RMSPoints)) * (statsSize + 16)
	}
	return total
}

// Count exposes the current global counter value (for tests).
func (p *Profiler) Count() uint64 { return p.count }

// Symbols returns the symbol table the profiler was built against.
func (p *Profiler) Symbols() *trace.SymbolTable { return p.syms }
