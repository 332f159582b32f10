package core

import (
	"fmt"
	"sort"

	"aprof/internal/trace"
)

// NaiveProfiler is a simple-minded profiler in the spirit of Fig. 7,
// implemented directly from Definitions 2 and 3 and used as a
// differential-testing oracle for the timestamping algorithm. It maintains
// explicit sets instead of timestamps:
//
//   - per pending activation r of thread t, the set acc(r,t) of locations
//     accessed by r or by any of its (completed) descendants — a read of
//     ℓ ∉ acc(r,t) is a *first-read* for r;
//   - per memory location ℓ, the identity of the latest writer (an
//     application thread, or the kernel) together with the set of threads
//     that accessed ℓ since that write — a read by t is an *induced
//     first-read* when the latest writer exists, differs from t, and t has
//     not accessed ℓ since.
//
// A read operation contributes to drms(r,t) if it is a first-read or an
// induced first-read for r; induced first-reads hold for every pending
// activation at once (the inducing condition is thread-level), while plain
// first-reads hold exactly for the activations whose acc set misses ℓ. The
// rms counts first accesses that are reads, using the same acc sets.
//
// As the paper observes for the naive approach, the space is proportional
// to the memory size times the stack depth times the number of threads, and
// every event updates many sets — this profiler exists for correctness
// checking, not for use.
type NaiveProfiler struct {
	cfg     Config
	syms    *trace.SymbolTable
	threads map[trace.ThreadID]*naiveThread
	cells   map[trace.Addr]*naiveCell
	out     *Profiles
}

const kernelWriter trace.ThreadID = -1 << 30

// The source a naive read is induced by, if any.
const (
	writerNone uint8 = iota
	writerThread
	writerKernel
)

type naiveCell struct {
	// writer is the latest writer of the cell: a thread id, kernelWriter,
	// or absent (cell never written) when the cell is missing from the map.
	writer trace.ThreadID
	// accessedSince holds the threads that accessed the cell since the
	// latest write.
	accessedSince map[trace.ThreadID]bool
}

type naiveThread struct {
	id    trace.ThreadID
	stack []*naiveFrame
	cost  uint64
}

type naiveFrame struct {
	rtn       trace.RoutineID
	entryCost uint64
	acc       map[trace.Addr]bool
	a         activation
}

// NewNaiveProfiler returns the oracle profiler.
func NewNaiveProfiler(syms *trace.SymbolTable, cfg Config) *NaiveProfiler {
	return &NaiveProfiler{
		cfg:     cfg,
		syms:    syms,
		threads: make(map[trace.ThreadID]*naiveThread),
		cells:   make(map[trace.Addr]*naiveCell),
		out: &Profiles{
			Symbols: syms,
			ByKey:   make(map[Key]*Profile),
		},
	}
}

// RunNaive runs the oracle over a merged trace.
func RunNaive(tr *trace.Trace, cfg Config) (*Profiles, error) {
	p := NewNaiveProfiler(tr.Symbols, cfg)
	for i := range tr.Events {
		if err := p.HandleEvent(&tr.Events[i]); err != nil {
			return nil, fmt.Errorf("core: naive: event %d (%s): %w", i, tr.Events[i].String(), err)
		}
	}
	return p.Finish()
}

func (p *NaiveProfiler) thread(id trace.ThreadID) *naiveThread {
	t, ok := p.threads[id]
	if !ok {
		t = &naiveThread{id: id}
		p.threads[id] = t
	}
	return t
}

// HandleEvent processes one event.
func (p *NaiveProfiler) HandleEvent(ev *trace.Event) error {
	p.out.Events++
	switch ev.Kind {
	case trace.KindCall:
		t := p.thread(ev.Thread)
		t.cost = ev.Cost
		t.stack = append(t.stack, &naiveFrame{
			rtn:       ev.Routine,
			entryCost: ev.Cost,
			acc:       make(map[trace.Addr]bool),
		})
	case trace.KindReturn:
		t := p.thread(ev.Thread)
		t.cost = ev.Cost
		if len(t.stack) == 0 {
			return fmt.Errorf("return on thread %d with empty stack", ev.Thread)
		}
		p.pop(t, ev.Cost)
	case trace.KindRead, trace.KindUserToKernel:
		t := p.thread(ev.Thread)
		t.cost = ev.Cost
		ev.Cells(func(a trace.Addr) { p.read(t, a) })
	case trace.KindWrite:
		t := p.thread(ev.Thread)
		t.cost = ev.Cost
		ev.Cells(func(a trace.Addr) { p.write(t, a) })
	case trace.KindKernelToUser:
		t := p.thread(ev.Thread)
		t.cost = ev.Cost
		ev.Cells(func(a trace.Addr) {
			p.cells[a] = &naiveCell{
				writer:        kernelWriter,
				accessedSince: make(map[trace.ThreadID]bool),
			}
		})
	case trace.KindSwitchThread:
		// No counter to maintain in the naive model.
	case trace.KindAcquire, trace.KindRelease:
		p.thread(ev.Thread).cost = ev.Cost
	default:
		return fmt.Errorf("unhandled event kind %v", ev.Kind)
	}
	return nil
}

func (p *NaiveProfiler) read(t *naiveThread, a trace.Addr) {
	cell := p.cells[a]

	inducedBy := writerNone
	if cell != nil && cell.writer != t.id && !cell.accessedSince[t.id] {
		if cell.writer == kernelWriter {
			if p.cfg.ExternalInput {
				inducedBy = writerKernel
			}
		} else if p.cfg.ThreadInput {
			inducedBy = writerThread
		}
	}
	if cell != nil {
		cell.accessedSince[t.id] = true
	}

	if len(t.stack) == 0 {
		return
	}
	if inducedBy != writerNone {
		// Induced first-read: the inducing condition is thread-level, so it
		// counts for every pending activation, under the same attribution
		// (the efficient algorithm reaches the same totals by incrementing
		// only the topmost partial counter, which rolls up at returns).
		for _, f := range t.stack {
			switch inducedBy {
			case writerThread:
				f.a.indThread++
			case writerKernel:
				f.a.indExternal++
			}
		}
	} else {
		for _, f := range t.stack {
			if !f.acc[a] {
				f.a.first++
			}
		}
	}
	// rms: a first access that is a read, per activation.
	for _, f := range t.stack {
		if !f.acc[a] {
			f.a.rms++
			f.acc[a] = true
		}
	}
}

func (p *NaiveProfiler) write(t *naiveThread, a trace.Addr) {
	cell := p.cells[a]
	if cell == nil {
		cell = &naiveCell{accessedSince: make(map[trace.ThreadID]bool)}
		p.cells[a] = cell
	}
	cell.writer = t.id
	clear(cell.accessedSince)
	cell.accessedSince[t.id] = true
	for _, f := range t.stack {
		f.acc[a] = true
	}
}

// Finish collects pending activations and returns the profiles.
func (p *NaiveProfiler) Finish() (*Profiles, error) {
	ids := make([]trace.ThreadID, 0, len(p.threads))
	for id := range p.threads {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		t := p.threads[id]
		for len(t.stack) > 0 {
			p.pop(t, t.cost)
		}
	}
	return p.out, nil
}

func (p *NaiveProfiler) pop(t *naiveThread, retCost uint64) {
	top := len(t.stack) - 1
	f := t.stack[top]
	t.stack = t.stack[:top]
	key := Key{Routine: f.rtn, Thread: t.id}
	prof := p.out.ByKey[key]
	if prof == nil {
		prof = newProfile(f.rtn, t.id)
		p.out.ByKey[key] = prof
	}
	cost := uint64(0)
	if retCost > f.entryCost {
		cost = retCost - f.entryCost
	}
	a := f.a
	a.cost = cost
	prof.collect(a)
	if p.cfg.OnActivation != nil {
		p.cfg.OnActivation(a.record(f.rtn, t.id))
	}
}
