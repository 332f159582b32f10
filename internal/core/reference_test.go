package core

import "aprof/internal/trace"

// The per-cell read(ℓ,t) handler of Fig. 8, kept as the reference that the
// run-at-a-time readRange/onReadRun must match byte for byte: it classifies
// every cell of a read on its own, stamping ts_t[ℓ] as it goes.

// readRangePerCell applies onRead to the size cells from addr, one
// leaf-aligned span at a time.
func (p *Profiler) readRangePerCell(t *threadState, addr trace.Addr, size uint32) {
	for n := uint64(size); n > 0; {
		ts := t.ts.Span(addr, n)
		var w []uint64
		if p.w != nil {
			w = p.w.PeekSpan(addr, uint64(len(ts)))
		}
		if w == nil {
			w = noWrites[:len(ts)]
		}
		for i := range ts {
			p.onRead(t, &ts[i], w[i])
		}
		addr += trace.Addr(len(ts))
		n -= uint64(len(ts))
	}
}

// onRead implements the read(ℓ,t) handler of Fig. 8, extended to classify
// the source of induced first-reads and to maintain the rms in parallel.
// slot is ts_t[ℓ] and w the write-shadow cell w[ℓ] (0 when ℓ was never
// written or no write shadow is kept).
func (p *Profiler) onRead(t *threadState, slot *uint64, w uint64) {
	old := *slot
	*slot = p.count

	if len(t.stack) == 0 {
		return
	}
	top := &t.stack[len(t.stack)-1]
	firstAccess := old < top.ts

	induced := false
	if old < w>>1 {
		if w&kernelBit == 0 {
			if p.cfg.ThreadInput {
				induced = true
				top.indThread++
			}
		} else if p.cfg.ExternalInput {
			induced = true
			top.indExternal++
		}
	}
	if !induced && firstAccess {
		top.first++
		if old != 0 {
			if i, ok := deepestAncestor(t.stack, old); ok {
				t.stack[i].first--
			}
		}
	}
	if firstAccess {
		top.rms++
		if old != 0 {
			if i, ok := deepestAncestor(t.stack, old); ok {
				t.stack[i].rms--
			}
		}
	}
}

// handleEventPerCell is HandleEvent with read and userToKernel events
// routed through the per-cell handler; every other event, and every event
// HandleEvent would fault, goes through HandleEvent itself.
func (p *Profiler) handleEventPerCell(ev *trace.Event) error {
	if ev.Kind != trace.KindRead && ev.Kind != trace.KindUserToKernel || ev.Thread < 0 || p.err != nil || p.finished {
		return p.HandleEvent(ev)
	}
	p.out.Events++
	if p.obs != nil {
		p.obs.countEvent(ev.Kind)
	}
	p.checkLimits()
	t := p.thread(ev.Thread)
	t.cost = ev.Cost
	if !p.sampledOut() {
		p.readRangePerCell(t, ev.Addr, ev.Size)
	}
	return nil
}

// RunPerCell is Run with the per-cell reference read handler. It is
// exported, in a test file only, for the external tests that compare
// encoded profiles (profio imports core).
func RunPerCell(tr *trace.Trace, cfg Config) (*Profiles, error) {
	p := NewProfiler(tr.Symbols, cfg)
	for i := range tr.Events {
		if err := p.handleEventPerCell(&tr.Events[i]); err != nil {
			return nil, err
		}
	}
	return p.Finish()
}

// NamedConfig is one entry of ReferenceConfigs.
type NamedConfig struct {
	Name string
	Cfg  Config
}

// ReferenceConfigs exposes allConfigs to the external tests.
func ReferenceConfigs() []NamedConfig {
	out := make([]NamedConfig, len(allConfigs))
	for i, tc := range allConfigs {
		out[i] = NamedConfig{tc.name, tc.cfg}
	}
	return out
}
