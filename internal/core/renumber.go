package core

import (
	"fmt"
	"sort"

	"aprof/internal/trace"
)

// renumber performs the periodical global renumbering of timestamps (§3.2).
// Counter overflows alter the partial ordering between memory timestamps and
// yield wrong input sizes, so when the counter reaches its limit every live
// timestamp — ts_t[ℓ] for every thread t and location ℓ, wts[ℓ] (the w[ℓ]>>1
// part of the write shadow) for every location ℓ, and S_t[i].ts for every
// pending activation — is remapped to a dense range 1..k preserving the full
// order, *including equalities*: ts_t[ℓ] == wts[ℓ] distinguishes a thread's
// own latest write from a foreign one, so the same rank function must be
// applied to every table. The write shadow keeps its kernel bit.
func (p *Profiler) renumber() error {
	vals := make([]uint64, 0, 1024)
	collect := func(v uint64) {
		if v != 0 {
			vals = append(vals, v)
		}
	}
	isZero := func(v uint64) bool { return v == 0 }
	for _, t := range p.threads {
		for i := range t.stack {
			collect(t.stack[i].ts)
		}
		t.ts.ForEach(isZero, func(_ trace.Addr, v uint64) { collect(v) })
	}
	if p.w != nil {
		p.w.ForEach(isZero, func(_ trace.Addr, w uint64) { collect(w >> 1) })
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	vals = dedupeSorted(vals)

	rank := func(v uint64) uint64 {
		if v == 0 {
			return 0
		}
		i := sort.Search(len(vals), func(i int) bool { return vals[i] >= v })
		// v was collected, so it is present.
		return uint64(i) + 1
	}
	for _, t := range p.threads {
		for i := range t.stack {
			t.stack[i].ts = rank(t.stack[i].ts)
		}
		t.ts.UpdateAll(rank)
	}
	if p.w != nil {
		p.w.UpdateAll(func(w uint64) uint64 { return rank(w>>1)<<1 | w&kernelBit })
	}
	// Ranks are 1..len(vals); the counter resumes past them (and never below
	// 1, which would let fresh timestamps collide with the zero sentinel).
	p.count = uint64(len(vals)) + 1
	p.out.Renumberings++
	if p.count+1 >= p.limit {
		return fmt.Errorf("core: counter limit %d too small: %d timestamps live after renumbering", p.limit, p.count)
	}
	return nil
}

func dedupeSorted(vals []uint64) []uint64 {
	out := vals[:0]
	for i, v := range vals {
		if i == 0 || v != vals[i-1] {
			out = append(out, v)
		}
	}
	return out
}
