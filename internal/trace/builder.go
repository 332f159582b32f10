package trace

import "fmt"

// The Builder collects events in chunks that are never regrown, so
// building a trace of n events writes each event once into a chunk and
// copies it once into the final slice, instead of re-copying the whole
// prefix on every doubling of one growing slice. The first chunk holds
// firstChunkEvents and each next one twice its predecessor, up to
// chunkEvents, so a short trace does not pay for a full chunk.
const (
	firstChunkEvents = 256
	chunkEvents      = 8192
)

// Builder constructs a merged trace programmatically. Workload generators
// drive one ThreadBuilder per simulated thread; the builder linearizes
// operations in call order and inserts switchThread events between
// operations of different threads, exactly as the paper's merged traces
// require. This stands in for observing a real interleaved execution: the
// interleaving is whatever order the generator issues operations in.
type Builder struct {
	tr *Trace
	// chunks holds the full chunks, together holding full events; cur is
	// the chunk being filled.
	chunks  [][]Event
	full    int
	cur     []Event
	time    uint64
	last    ThreadID
	started bool
	noAuto  bool
	threads map[ThreadID]*ThreadBuilder
	// order lists the threads in order of their first emitted event, the
	// order in which Trace closes their dangling activations.
	order []*ThreadBuilder
}

// AutoCost controls whether every emitted operation implicitly advances the
// issuing thread's cost by one basic block (the default, suitable for
// programmatic workload generators where one operation stands for one
// block). The VM disables it and drives costs explicitly from its own
// basic-block counter via ThreadBuilder.SetCost.
func (b *Builder) AutoCost(enabled bool) { b.noAuto = !enabled }

// NewBuilder returns a Builder with an empty trace.
func NewBuilder() *Builder {
	return &Builder{
		tr:      NewTrace(),
		threads: make(map[ThreadID]*ThreadBuilder),
	}
}

// Symbols exposes the symbol table of the trace under construction.
func (b *Builder) Symbols() *SymbolTable { return b.tr.Symbols }

// Thread returns the builder for thread id, creating it on first use.
func (b *Builder) Thread(id ThreadID) *ThreadBuilder {
	if tb, ok := b.threads[id]; ok {
		return tb
	}
	tb := &ThreadBuilder{b: b, id: id}
	b.threads[id] = tb
	return tb
}

// Trace finalizes and returns the built trace. Pending activations are
// closed with synthetic returns so that every activation is collected: the
// result equals the emitted events followed by Trace.CloseDangling. The
// builder must not be used afterwards.
func (b *Builder) Trace() *Trace {
	if b.tr == nil {
		panic("trace: Builder used after Trace()")
	}
	n := b.full + len(b.cur)
	dangling := 0
	for _, t := range b.order {
		dangling += t.depth
	}
	var events []Event // nil for an empty trace, as CloseDangling leaves it
	if n+dangling > 0 {
		events = make([]Event, 0, n+dangling)
	}
	for _, c := range b.chunks {
		events = append(events, c...)
	}
	events = append(events, b.cur...)
	time := b.time
	for _, t := range b.order {
		for d := t.depth; d > 0; d-- {
			time++
			events = append(events, Event{Kind: KindReturn, Thread: t.id, Time: time, Cost: t.emitted})
		}
	}
	tr := b.tr
	tr.Events = events
	b.tr, b.chunks, b.cur = nil, nil, nil
	return tr
}

// add appends ev to the current chunk, starting a new chunk when it is
// full.
func (b *Builder) add(ev Event) {
	if len(b.cur) == cap(b.cur) {
		b.nextChunk()
	}
	b.cur = append(b.cur, ev)
}

// nextChunk retires the full current chunk and starts the next one.
func (b *Builder) nextChunk() {
	size := firstChunkEvents
	if b.cur != nil {
		b.chunks = append(b.chunks, b.cur)
		b.full += len(b.cur)
		size = min(2*cap(b.cur), chunkEvents)
	}
	b.cur = make([]Event, 0, size)
}

// ThreadBuilder issues the operations of one thread.
type ThreadBuilder struct {
	b     *Builder
	id    ThreadID
	cost  uint64
	depth int
	// emitted is the cost carried by the thread's last emitted event, and
	// active reports whether it has emitted one; Trace closes dangling
	// activations at that cost.
	emitted uint64
	active  bool
}

// emit appends ev, inserting a switchThread event first if the issuing
// thread differs from the previous one.
func (t *ThreadBuilder) emit(ev Event) {
	b := t.b
	if b.tr == nil {
		panic("trace: Builder used after Trace()")
	}
	if !t.active {
		t.active = true
		b.order = append(b.order, t)
	}
	t.emitted = ev.Cost
	if b.started && ev.Thread != b.last {
		b.time++
		b.add(Event{Kind: KindSwitchThread, Thread: ev.Thread, Time: b.time})
	}
	b.started = true
	b.last = ev.Thread
	b.time++
	ev.Time = b.time
	b.add(ev)
}

// ID returns the thread id.
func (t *ThreadBuilder) ID() ThreadID { return t.id }

// Cost returns the thread's cumulative cost so far.
func (t *ThreadBuilder) Cost() uint64 { return t.cost }

// Depth returns the thread's current call-stack depth.
func (t *ThreadBuilder) Depth() int { return t.depth }

// Work advances the thread's cost by n executed basic blocks.
func (t *ThreadBuilder) Work(n uint64) { t.cost += n }

// SetCost sets the thread's cumulative cost to c. It panics if c would make
// the cost decrease. Used by instrumentation layers (the VM) that count
// basic blocks themselves.
func (t *ThreadBuilder) SetCost(c uint64) {
	if c < t.cost {
		t.costBelow(c)
	}
	t.cost = c
}

// costBelow panics for SetCost(c). It is kept out of SetCost so that
// SetCost, called before every VM event, stays inlinable.
//
//go:noinline
func (t *ThreadBuilder) costBelow(c uint64) {
	panic(fmt.Sprintf("trace: thread %d: SetCost(%d) below current cost %d", t.id, c, t.cost))
}

// bump advances the cost by one operation unless the builder is in
// explicit-cost mode.
func (t *ThreadBuilder) bump() {
	if !t.b.noAuto {
		t.cost++
	}
}

// Call activates the routine with the given name. Every operation costs one
// basic block, so Call also advances the cost by one.
func (t *ThreadBuilder) Call(name string) {
	t.bump()
	t.depth++
	t.emit(Event{
		Kind:    KindCall,
		Thread:  t.id,
		Routine: t.b.tr.Symbols.Intern(name),
		Cost:    t.cost,
	})
}

// Ret completes the topmost pending activation.
func (t *ThreadBuilder) Ret() {
	if t.depth == 0 {
		panic(fmt.Sprintf("trace: thread %d: Ret with empty call stack", t.id))
	}
	t.bump()
	t.depth--
	t.emit(Event{Kind: KindReturn, Thread: t.id, Cost: t.cost})
}

// Read issues a read of size cells starting at addr.
func (t *ThreadBuilder) Read(addr Addr, size uint32) {
	t.bump()
	t.emit(Event{Kind: KindRead, Thread: t.id, Addr: addr, Size: size, Cost: t.cost})
}

// Write issues a write of size cells starting at addr.
func (t *ThreadBuilder) Write(addr Addr, size uint32) {
	t.bump()
	t.emit(Event{Kind: KindWrite, Thread: t.id, Addr: addr, Size: size, Cost: t.cost})
}

// Read1 reads the single cell at addr.
func (t *ThreadBuilder) Read1(addr Addr) { t.Read(addr, 1) }

// Write1 writes the single cell at addr.
func (t *ThreadBuilder) Write1(addr Addr) { t.Write(addr, 1) }

// SysRead models a read-like system call (read, recvfrom, pread64, readv,
// msgrcv, preadv): the kernel fills size cells at addr with external data,
// producing a kernelToUser event.
func (t *ThreadBuilder) SysRead(addr Addr, size uint32) {
	t.bump()
	t.emit(Event{Kind: KindKernelToUser, Thread: t.id, Addr: addr, Size: size, Cost: t.cost})
}

// SysWrite models a write-like system call (write, sendto, pwrite64, writev,
// msgsnd, pwritev): the kernel reads size cells at addr on the thread's
// behalf, producing a userToKernel event.
func (t *ThreadBuilder) SysWrite(addr Addr, size uint32) {
	t.bump()
	t.emit(Event{Kind: KindUserToKernel, Thread: t.id, Addr: addr, Size: size, Cost: t.cost})
}

// Acquire emits a synchronization acquire on the object at addr.
func (t *ThreadBuilder) Acquire(obj Addr) {
	t.bump()
	t.emit(Event{Kind: KindAcquire, Thread: t.id, Addr: obj, Cost: t.cost})
}

// Release emits a synchronization release on the object at addr.
func (t *ThreadBuilder) Release(obj Addr) {
	t.bump()
	t.emit(Event{Kind: KindRelease, Thread: t.id, Addr: obj, Cost: t.cost})
}
