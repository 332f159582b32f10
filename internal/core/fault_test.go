package core

import (
	"strings"
	"testing"

	"aprof/internal/trace"
)

// feedEvents drives a profiler over raw events, returning (profiles, error).
func feedEvents(cfg Config, syms *trace.SymbolTable, events []trace.Event) (*Profiles, error) {
	p := NewProfiler(syms, cfg)
	for i := range events {
		if err := p.HandleEvent(&events[i]); err != nil {
			return nil, err
		}
	}
	return p.Finish()
}

func symsWith(names ...string) *trace.SymbolTable {
	s := trace.NewSymbolTable()
	for _, n := range names {
		s.Intern(n)
	}
	return s
}

// TestFaultReturnWithoutCall covers the three policies on a return with an
// empty shadow stack.
func TestFaultReturnWithoutCall(t *testing.T) {
	syms := symsWith("f")
	events := []trace.Event{
		{Kind: trace.KindReturn, Thread: 1, Cost: 5},
		{Kind: trace.KindCall, Thread: 1, Routine: 0, Cost: 6},
		{Kind: trace.KindReturn, Thread: 1, Cost: 9},
	}

	if _, err := feedEvents(Config{}, syms, events); err == nil {
		t.Error("strict: no error on return-without-call")
	} else if !strings.Contains(err.Error(), "empty shadow stack") {
		t.Errorf("strict: unexpected error %v", err)
	}

	ps, err := feedEvents(Config{FaultPolicy: FaultSkip}, syms, events)
	if err != nil {
		t.Fatalf("skip: %v", err)
	}
	if ps.Drops.Total() != 0 {
		t.Errorf("skip: drops counted: %+v", ps.Drops)
	}
	if got := ps.Get("f", 1); got == nil || got.Calls != 1 {
		t.Errorf("skip: profile for f missing or wrong calls: %+v", got)
	}

	ps, err = feedEvents(Config{FaultPolicy: FaultCount}, syms, events)
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	if ps.Drops.ReturnWithoutCall != 1 || ps.Drops.Total() != 1 {
		t.Errorf("count: drops = %+v, want ReturnWithoutCall=1 only", ps.Drops)
	}
}

// TestFaultUnknownRoutine covers calls naming a routine id outside the
// symbol table.
func TestFaultUnknownRoutine(t *testing.T) {
	syms := symsWith("f")
	events := []trace.Event{
		{Kind: trace.KindCall, Thread: 1, Routine: 42, Cost: 1},
		{Kind: trace.KindCall, Thread: 1, Routine: 0, Cost: 2},
		{Kind: trace.KindReturn, Thread: 1, Cost: 8},
	}
	if _, err := feedEvents(Config{}, syms, events); err == nil {
		t.Error("strict: no error on unknown routine")
	}
	ps, err := feedEvents(Config{FaultPolicy: FaultCount}, syms, events)
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	if ps.Drops.UnknownRoutine != 1 {
		t.Errorf("count: drops = %+v, want UnknownRoutine=1", ps.Drops)
	}
	// The dropped call pushed no frame: the return matches the good call.
	if got := ps.Get("f", 1); got == nil || got.Calls != 1 || got.TotalCost != 6 {
		t.Errorf("count: profile for f = %+v, want 1 call of cost 6", got)
	}
}

// TestFaultBadThread covers events with a negative thread id.
func TestFaultBadThread(t *testing.T) {
	syms := symsWith("f")
	events := []trace.Event{
		{Kind: trace.KindCall, Thread: -3, Routine: 0, Cost: 1},
		{Kind: trace.KindCall, Thread: 1, Routine: 0, Cost: 1},
		{Kind: trace.KindReturn, Thread: 1, Cost: 2},
	}
	if _, err := feedEvents(Config{}, syms, events); err == nil {
		t.Error("strict: no error on negative thread id")
	}
	ps, err := feedEvents(Config{FaultPolicy: FaultCount}, syms, events)
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	if ps.Drops.BadThread != 1 {
		t.Errorf("count: drops = %+v, want BadThread=1", ps.Drops)
	}
}

// TestFaultAfterFinish covers events fed after Finish.
func TestFaultAfterFinish(t *testing.T) {
	for _, policy := range []FaultPolicy{FaultStrict, FaultSkip, FaultCount} {
		p := NewProfiler(symsWith("f"), Config{FaultPolicy: policy})
		if _, err := p.Finish(); err != nil {
			t.Fatal(err)
		}
		ev := trace.Event{Kind: trace.KindCall, Thread: 1, Routine: 0, Cost: 1}
		err := p.HandleEvent(&ev)
		if policy == FaultStrict {
			if err == nil {
				t.Error("strict: no error on event after Finish")
			}
		} else if err != nil {
			t.Errorf("%v: %v", policy, err)
		}
	}
}

// TestFaultInvalidKind covers events with an out-of-range kind byte.
func TestFaultInvalidKind(t *testing.T) {
	syms := symsWith("f")
	events := []trace.Event{{Kind: trace.Kind(99), Thread: 1}}
	if _, err := feedEvents(Config{}, syms, events); err == nil {
		t.Error("strict: no error on invalid kind")
	}
	ps, err := feedEvents(Config{FaultPolicy: FaultCount}, syms, events)
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	if ps.Drops.InvalidKind != 1 {
		t.Errorf("count: drops = %+v, want InvalidKind=1", ps.Drops)
	}
}

// TestAdversarialTolerated pins down event orders that are legal in this
// trace model and must NOT fault under any policy: a switchThread to the
// thread that is already current, a kernelToUser with no prior userToKernel
// (system calls like read(2) produce standalone kernelToUser events), and
// memory events on a thread whose stack has emptied (they update shadow
// state but charge no activation).
func TestAdversarialTolerated(t *testing.T) {
	syms := symsWith("f")
	events := []trace.Event{
		{Kind: trace.KindSwitchThread, Thread: 1},
		{Kind: trace.KindSwitchThread, Thread: 1}, // duplicate switch
		{Kind: trace.KindKernelToUser, Thread: 1, Addr: 0x10, Size: 4, Cost: 1},
		{Kind: trace.KindCall, Thread: 1, Routine: 0, Cost: 2},
		{Kind: trace.KindRead, Thread: 1, Addr: 0x10, Size: 4, Cost: 3},
		{Kind: trace.KindReturn, Thread: 1, Cost: 4},
		// Stack now empty: memory events must still be absorbed cleanly.
		{Kind: trace.KindRead, Thread: 1, Addr: 0x20, Size: 1, Cost: 5},
		{Kind: trace.KindWrite, Thread: 1, Addr: 0x20, Size: 1, Cost: 6},
	}
	for _, policy := range []FaultPolicy{FaultStrict, FaultSkip, FaultCount} {
		ps, err := feedEvents(Config{ThreadInput: true, ExternalInput: true, FaultPolicy: policy}, syms, events)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if ps.Drops.Total() != 0 {
			t.Errorf("%v: spurious drops %+v", policy, ps.Drops)
		}
		prof := ps.Get("f", 1)
		if prof == nil || prof.Calls != 1 {
			t.Fatalf("%v: profile missing", policy)
		}
		// The 4 cells were kernel-produced before the call: induced
		// first-reads attributed to the external source.
		if prof.InducedExternal != 4 {
			t.Errorf("%v: InducedExternal = %d, want 4", policy, prof.InducedExternal)
		}
	}
}

// TestLimitsMaxDepth checks the depth cap: deep calls are shed and counted,
// shallow profiling resumes after the overflowing subtree unwinds, and the
// results are identical under every policy.
func TestLimitsMaxDepth(t *testing.T) {
	syms := symsWith("r")
	var events []trace.Event
	const depth = 10
	for i := 0; i < depth; i++ {
		events = append(events, trace.Event{Kind: trace.KindCall, Thread: 1, Routine: 0, Cost: uint64(i)})
	}
	for i := depth; i > 0; i-- {
		events = append(events, trace.Event{Kind: trace.KindReturn, Thread: 1, Cost: uint64(2*depth - i)})
	}
	// A second, shallow activation after the deep tower.
	events = append(events,
		trace.Event{Kind: trace.KindCall, Thread: 1, Routine: 0, Cost: 100},
		trace.Event{Kind: trace.KindReturn, Thread: 1, Cost: 101},
	)
	cfg := Config{Limits: Limits{MaxDepth: 4}}
	ps, err := feedEvents(cfg, syms, events)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Drops.DepthOverflow != depth-4 {
		t.Errorf("DepthOverflow = %d, want %d", ps.Drops.DepthOverflow, depth-4)
	}
	prof := ps.Get("r", 1)
	if prof == nil || prof.Calls != 4+1 {
		t.Fatalf("profile = %+v, want 5 collected activations", prof)
	}
}

// TestLimitsMaxEventsSampling checks that passing MaxEvents degrades to
// sampling: some memory events are shed and counted, and the run completes.
func TestLimitsMaxEventsSampling(t *testing.T) {
	syms := symsWith("r")
	var events []trace.Event
	events = append(events, trace.Event{Kind: trace.KindCall, Thread: 1, Routine: 0, Cost: 0})
	for i := 0; i < 1000; i++ {
		events = append(events, trace.Event{
			Kind: trace.KindRead, Thread: 1, Addr: trace.Addr(i), Size: 1, Cost: uint64(i),
		})
	}
	events = append(events, trace.Event{Kind: trace.KindReturn, Thread: 1, Cost: 1001})

	cfg := Config{Limits: Limits{MaxEvents: 100}}
	ps, err := feedEvents(cfg, syms, events)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Drops.SampledOut == 0 {
		t.Error("no events sampled out past MaxEvents")
	}
	prof := ps.Get("r", 1)
	if prof == nil || prof.Calls != 1 {
		t.Fatal("activation lost")
	}
	// Costs stay exact even when metrics degrade.
	if prof.TotalCost != 1001 {
		t.Errorf("TotalCost = %d, want 1001 (costs must stay exact)", prof.TotalCost)
	}
	// Metrics degrade but remain bounded by the true value.
	if prof.SumRMS >= 1000 {
		t.Errorf("SumRMS = %d: sampling did not reduce the metric", prof.SumRMS)
	}
	// An unlimited run over the same events must not drop anything.
	ps2, err := feedEvents(Config{}, syms, events)
	if err != nil {
		t.Fatal(err)
	}
	if ps2.Drops.Total() != 0 {
		t.Errorf("unlimited run dropped events: %+v", ps2.Drops)
	}
}

// TestLimitsMaxMemorySampling checks that a tight memory bound triggers the
// sampling degradation instead of unbounded shadow growth.
func TestLimitsMaxMemorySampling(t *testing.T) {
	syms := symsWith("r")
	var events []trace.Event
	events = append(events, trace.Event{Kind: trace.KindCall, Thread: 1, Routine: 0, Cost: 0})
	// Touch many distinct pages so the shadow memory actually grows; enough
	// events to cross several memCheckInterval boundaries.
	for i := 0; i < 3*memCheckInterval; i++ {
		events = append(events, trace.Event{
			Kind: trace.KindRead, Thread: 1, Addr: trace.Addr(i * 4096), Size: 1, Cost: uint64(i),
		})
	}
	events = append(events, trace.Event{Kind: trace.KindReturn, Thread: 1, Cost: 99999})

	cfg := Config{Limits: Limits{MaxMemoryBytes: 64 << 10}}
	ps, err := feedEvents(cfg, syms, events)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Drops.SampledOut == 0 {
		t.Error("memory bound never triggered sampling")
	}
}

// TestParseFaultPolicy covers the flag parser.
func TestParseFaultPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FaultPolicy
		ok   bool
	}{
		{"strict", FaultStrict, true},
		{"", FaultStrict, true},
		{"skip", FaultSkip, true},
		{"count", FaultCount, true},
		{"bogus", FaultStrict, false},
	} {
		got, err := ParseFaultPolicy(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseFaultPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if tc.ok && tc.in != "" && got.String() != tc.in {
			t.Errorf("String() = %q, want %q", got.String(), tc.in)
		}
	}
}

// TestDropStatsIsZero: IsZero is true only when every counter is zero, also
// when the counters' uint64 sum wraps to zero.
func TestDropStatsIsZero(t *testing.T) {
	if d := (DropStats{}); !d.IsZero() {
		t.Error("zero DropStats: IsZero = false")
	}
	for _, d := range []DropStats{
		{SampledOut: 1},
		{ReturnWithoutCall: 1 << 63, UnknownRoutine: 1 << 63},
		{BadThread: ^uint64(0), AfterFinish: 1},
		{InvalidKind: 3, DepthOverflow: ^uint64(0) - 2},
	} {
		if d.IsZero() {
			t.Errorf("%+v: IsZero = true (Total = %d)", d, d.Total())
		}
	}
}
