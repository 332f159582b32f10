package core

import (
	"fmt"
	"testing"

	"aprof/internal/obs"
	"aprof/internal/trace"
)

// TestObsEventCountsPublishedAtBoundaries: HandleEvent counts events into
// plain per-kind fields that PublishObs adds to the registry, so after
// every PublishObs — and after Finish — each events_<kind> counter equals
// the events of that kind fed so far. The two profilers share one registry
// and are fed in alternating batches, so their counts must add up, never
// overwrite each other. One event of an undefined kind goes to
// events_invalid.
func TestObsEventCountsPublishedAtBoundaries(t *testing.T) {
	reg := obs.NewRegistry()
	var want [trace.NumKinds + 1]uint64
	check := func(when string) {
		t.Helper()
		cs := reg.Snapshot().Scope(ObsScopeCore)
		for k, n := range want {
			name := "events_invalid"
			if k < trace.NumKinds {
				name = "events_" + trace.Kind(k).String()
			}
			if got := cs.Counter(name); got != n {
				t.Errorf("%s: %s = %d, want %d", when, name, got, n)
			}
		}
	}
	trs := []*trace.Trace{
		trace.Random(trace.RandomConfig{Seed: 8, Ops: 900, Threads: 3}),
		trace.Random(trace.RandomConfig{Seed: 9, Ops: 700, Threads: 2}),
	}
	trs[1].Events = append(trs[1].Events, trace.Event{Kind: trace.Kind(trace.NumKinds + 3), Thread: 1})
	cfg := DefaultConfig()
	cfg.FaultPolicy = FaultCount
	cfg.Obs = reg
	ps := []*Profiler{NewProfiler(trs[0].Symbols, cfg), NewProfiler(trs[1].Symbols, cfg)}
	const batch = 128
	for from := 0; from < len(trs[0].Events) || from < len(trs[1].Events); from += batch {
		for i, p := range ps {
			evs := trs[i].Events[min(from, len(trs[i].Events)):min(from+batch, len(trs[i].Events))]
			for j := range evs {
				if err := p.HandleEvent(&evs[j]); err != nil {
					t.Fatal(err)
				}
				want[min(int(evs[j].Kind), trace.NumKinds)]++
			}
			p.PublishObs()
			check(fmt.Sprintf("profiler %d, after events %d..%d", i, from, from+len(evs)))
		}
	}
	if want[trace.NumKinds] != 1 {
		t.Fatalf("the invalid event was fed %d times, want 1", want[trace.NumKinds])
	}
	for i, p := range ps {
		if _, err := p.Finish(); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("after Finish of profiler %d", i))
	}
}
