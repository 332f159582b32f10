package tools

import (
	"errors"
	"math"
	"strings"
	"testing"

	"aprof/internal/trace"
)

// racyTrace builds a two-thread trace with unsynchronized conflicting
// accesses to cell 1 and properly synchronized accesses to cell 2.
func racyTrace() *trace.Trace {
	b := trace.NewBuilder()
	t1 := b.Thread(1)
	t2 := b.Thread(2)
	t1.Call("a")
	t2.Call("b")

	// Race: both write cell 1 with no synchronization.
	t1.Write1(1)
	t2.Write1(1)

	// No race: t1 writes cell 2, releases, t2 acquires, reads.
	t1.Write1(2)
	t1.Release(9)
	t2.Acquire(9)
	t2.Read1(2)

	t1.Ret()
	t2.Ret()
	return b.Trace()
}

type raceDetector interface {
	Tool
	raceCount() int64
}

func (h *Helgrind) raceCount() int64  { return h.Races }
func (h *FastTrack) raceCount() int64 { return h.Races }

func raceDetectors() []func() raceDetector {
	return []func() raceDetector{
		func() raceDetector { return NewHelgrind() },
		func() raceDetector { return NewFastTrack() },
	}
}

func TestHelgrindDetectsRaces(t *testing.T) {
	for _, mk := range raceDetectors() {
		h := mk()
		if err := Run(h, racyTrace()); err != nil {
			t.Fatal(err)
		}
		if h.raceCount() == 0 {
			t.Errorf("%s: no race detected on unsynchronized writes", h.Name())
		}
	}
	h := NewHelgrind()
	if err := Run(h, racyTrace()); err != nil {
		t.Fatal(err)
	}
	// The synchronized pair alone must be race-free.
	b := trace.NewBuilder()
	t1 := b.Thread(1)
	t2 := b.Thread(2)
	t1.Call("a")
	t2.Call("b")
	t1.Write1(2)
	t1.Release(9)
	t2.Acquire(9)
	t2.Read1(2)
	t2.Write1(2)
	t1.Ret()
	t2.Ret()
	syncedTrace := b.Trace()
	for _, mk := range raceDetectors() {
		clean := mk()
		if err := Run(clean, syncedTrace); err != nil {
			t.Fatal(err)
		}
		if clean.raceCount() != 0 {
			t.Errorf("%s: synchronized accesses reported %d races", clean.Name(), clean.raceCount())
		}
	}
}

func TestHelgrindSameThreadNoRace(t *testing.T) {
	b := trace.NewBuilder()
	t1 := b.Thread(1)
	t1.Call("main")
	for i := 0; i < 10; i++ {
		t1.Write1(5)
		t1.Read1(5)
	}
	t1.Ret()
	singleTrace := b.Trace()
	for _, mk := range raceDetectors() {
		h := mk()
		if err := Run(h, singleTrace); err != nil {
			t.Fatal(err)
		}
		if h.raceCount() != 0 {
			t.Errorf("%s: single-thread accesses reported %d races", h.Name(), h.raceCount())
		}
	}
}

func TestMemcheckFlagsUndefinedReads(t *testing.T) {
	b := trace.NewBuilder()
	t1 := b.Thread(1)
	t1.Call("main")
	t1.Read1(100)       // undefined
	t1.Write1(100)      //
	t1.Read1(100)       // defined now
	t1.SysRead(200, 4)  // kernel defines 200..203
	t1.Read(200, 4)     // defined
	t1.Read1(204)       // undefined
	t1.SysWrite(300, 2) // kernel reads undefined cells: 2 hits
	t1.Ret()
	m := NewMemcheck()
	if err := Run(m, b.Trace()); err != nil {
		t.Fatal(err)
	}
	if m.UndefinedReads != 4 {
		t.Errorf("UndefinedReads = %d, want 4", m.UndefinedReads)
	}
	if m.DefinedCells != 5 {
		t.Errorf("DefinedCells = %d, want 5", m.DefinedCells)
	}
}

func TestCallgrindGraph(t *testing.T) {
	b := trace.NewBuilder()
	t1 := b.Thread(1)
	t1.Call("main")
	t1.Work(10)
	for i := 0; i < 3; i++ {
		t1.Call("child")
		t1.Work(100)
		t1.Read(10, 5)
		t1.Write(20, 2)
		t1.Ret()
	}
	t1.Call("other")
	t1.Work(7)
	t1.Ret()
	t1.Ret()

	c := NewCallgrind(b.Symbols())
	tr := b.Trace()
	if err := Run(c, tr); err != nil {
		t.Fatal(err)
	}
	child := c.Node("child")
	if child == nil || child.Calls != 3 {
		t.Fatalf("child node = %+v, want 3 calls", child)
	}
	if child.Reads != 15 || child.Writes != 6 {
		t.Errorf("child accesses = (%d, %d), want (15, 6)", child.Reads, child.Writes)
	}
	if got := c.EdgeCount("main", "child"); got != 3 {
		t.Errorf("edge main->child = %d, want 3", got)
	}
	if got := c.EdgeCount("main", "other"); got != 1 {
		t.Errorf("edge main->other = %d, want 1", got)
	}
	main := c.Node("main")
	if main.Inclusive <= child.Inclusive {
		t.Errorf("main inclusive %d should exceed child inclusive %d", main.Inclusive, child.Inclusive)
	}
	// Exclusive costs sum to the total inclusive cost of main.
	total := main.Exclusive + child.Exclusive + c.Node("other").Exclusive
	if total != main.Inclusive {
		t.Errorf("exclusive sum %d != main inclusive %d", total, main.Inclusive)
	}
	if rep := c.Report(); len(rep) == 0 {
		t.Error("empty report")
	}
}

func TestAprofToolsProduceProfiles(t *testing.T) {
	tr := racyTrace()
	for _, mk := range []func(*trace.SymbolTable) *Aprof{NewAprof, NewAprofDRMS} {
		a := mk(tr.Symbols)
		if err := Run(a, tr); err != nil {
			t.Fatal(err)
		}
		if a.Profiles() == nil || len(a.Profiles().ByKey) == 0 {
			t.Errorf("%s produced no profiles", a.Name())
		}
		if a.SpaceBytes() <= 0 {
			t.Errorf("%s reports non-positive space", a.Name())
		}
	}
}

func TestAllToolsRunOnSharedTrace(t *testing.T) {
	tr := racyTrace()
	for _, f := range All() {
		tool := f.New(tr.Symbols)
		if tool.Name() != f.Name {
			t.Errorf("factory %q built tool named %q", f.Name, tool.Name())
		}
		if err := Run(tool, tr); err != nil {
			t.Errorf("%s: %v", f.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("helgrind"); !ok {
		t.Error("helgrind not found")
	}
	if _, ok := ByName("bogus"); ok {
		t.Error("bogus tool found")
	}
}

func TestCompareProducesOverheads(t *testing.T) {
	// A somewhat larger trace so timings are non-degenerate.
	b := trace.NewBuilder()
	t1 := b.Thread(1)
	t2 := b.Thread(2)
	t1.Call("main")
	t2.Call("worker")
	for i := 0; i < 20000; i++ {
		a := trace.Addr(i % 512)
		t1.Write1(a)
		t2.Read1(a)
	}
	t1.Ret()
	t2.Ret()
	tr := b.Trace()

	for _, parallel := range []bool{false, true} {
		overheads, err := Compare(tr, CompareConfig{Repeats: 2, ParallelNative: parallel})
		if err != nil {
			t.Fatal(err)
		}
		if len(overheads) != len(All()) {
			t.Fatalf("got %d overheads, want %d", len(overheads), len(All()))
		}
		bySlot := map[string]Overhead{}
		for _, o := range overheads {
			if o.Slowdown <= 0 || math.IsInf(o.Slowdown, 0) || math.IsNaN(o.Slowdown) {
				t.Errorf("%s: bad slowdown %f", o.Tool, o.Slowdown)
			}
			if o.SpaceOverhead < 0 {
				t.Errorf("%s: negative space overhead", o.Tool)
			}
			bySlot[o.Tool] = o
		}
		// Qualitative Table 1 shape: nulgrind is the cheapest tool.
		for _, other := range []string{"memcheck", "helgrind", "aprof", "aprof-drms"} {
			if bySlot["nulgrind"].Slowdown > bySlot[other].Slowdown {
				t.Errorf("nulgrind (%.2f) slower than %s (%.2f)", bySlot["nulgrind"].Slowdown, other, bySlot[other].Slowdown)
			}
		}
	}
}

func TestCompareToolFilter(t *testing.T) {
	b := trace.NewBuilder()
	tb := b.Thread(1)
	tb.Call("main")
	tb.Write(1, 64)
	tb.Ret()
	tr := b.Trace()
	overheads, err := Compare(tr, CompareConfig{Repeats: 1, Tools: []string{"nulgrind", "aprof"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(overheads) != 2 || overheads[0].Tool != "nulgrind" || overheads[1].Tool != "aprof" {
		t.Errorf("filter produced %+v", overheads)
	}
	if _, err := Compare(tr, CompareConfig{Tools: []string{"nope"}}); err == nil {
		t.Error("unknown tool accepted")
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-9 {
		t.Errorf("GeoMean(2,8) = %f, want 4", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Errorf("GeoMean(nil) = %f, want 0", got)
	}
	if got := GeoMean([]float64{1, 0}); got != 0 {
		t.Errorf("GeoMean with zero = %f, want 0", got)
	}
}

func TestNativeTimesPositive(t *testing.T) {
	b := trace.NewBuilder()
	t1 := b.Thread(1)
	t2 := b.Thread(2)
	t1.Call("a")
	t2.Call("b")
	for i := 0; i < 1000; i++ {
		t1.Read1(trace.Addr(i))
		t2.Read1(trace.Addr(i))
	}
	t1.Ret()
	t2.Ret()
	tr := b.Trace()
	if NativeTime(tr, 2) <= 0 {
		t.Error("serialized native time not positive")
	}
	if NativeParallelTime(tr, 2) <= 0 {
		t.Error("parallel native time not positive")
	}
}

func TestMemcheckCompression(t *testing.T) {
	m := NewMemcheck()
	b := trace.NewBuilder()
	t1 := b.Thread(1)
	t1.Call("main")
	// Define every cell of one chunk except the last, checking space, then
	// complete it and verify the bitmap is compressed away.
	t1.Write(0, 4095)
	t1.Ret()
	tr := b.Trace()
	if err := Run(m, tr); err != nil {
		t.Fatal(err)
	}
	before := m.SpaceBytes()
	if before < 512 {
		t.Fatalf("expected a live bitmap, space = %d", before)
	}
	m.define(4095)
	after := m.SpaceBytes()
	if after >= before {
		t.Errorf("chunk completion did not compress: %d -> %d", before, after)
	}
	if !m.isDefined(17) || !m.isDefined(4095) {
		t.Error("compressed chunk lost definedness")
	}
	if m.DefinedCells != 4096 {
		t.Errorf("DefinedCells = %d, want 4096", m.DefinedCells)
	}
	// Idempotent re-definition of a compressed chunk.
	m.define(17)
	if m.DefinedCells != 4096 {
		t.Errorf("re-define changed count to %d", m.DefinedCells)
	}
}

// TestRoundRobinOrder pins the measurement schedule without timing
// anything: every round runs each measurement once, in order, and a failing
// run stops the schedule.
func TestRoundRobinOrder(t *testing.T) {
	var order []string
	runs := func(names ...string) []func() error {
		var out []func() error
		for _, name := range names {
			out = append(out, func() error {
				order = append(order, name)
				if name == "fail" {
					return errors.New("tool failed")
				}
				return nil
			})
		}
		return out
	}
	if err := roundRobin(3, runs("native", "nulgrind", "aprof", "aprof-drms")...); err != nil {
		t.Fatal(err)
	}
	want := strings.Repeat("native nulgrind aprof aprof-drms ", 3)
	if got := strings.Join(order, " ") + " "; got != want {
		t.Errorf("run order %q, want %q", got, want)
	}

	order = nil
	if err := roundRobin(0, runs("native", "aprof")...); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, " "); got != "native aprof" {
		t.Errorf("zero rounds ran %q, want one round", got)
	}

	order = nil
	if err := roundRobin(3, runs("native", "fail", "aprof")...); err == nil {
		t.Fatal("failing run did not stop the schedule")
	}
	if got := strings.Join(order, " "); got != "native fail" {
		t.Errorf("runs after a failure: %q", got)
	}
}
