package profio

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"aprof/internal/core"
	"aprof/internal/trace"
	"aprof/internal/workloads"
)

// suiteProfiles profiles the 15 suite benchmarks with their rounds scaled
// by scale (×10 is the ingest-bulk session shape).
func suiteProfiles(tb testing.TB, scale int) []*core.Profiles {
	tb.Helper()
	var out []*core.Profiles
	for _, b := range workloads.FullSuite() {
		ps, err := core.Run(b.Scaled(scale).Build(), core.DefaultConfig())
		if err != nil {
			tb.Fatalf("%s ×%d: %v", b.Name, scale, err)
		}
		out = append(out, ps)
	}
	return out
}

// handProfiles builds profiles from the given routine names (one profile
// per name and thread), with the same points on both metrics.
func handProfiles(names []string, threads []trace.ThreadID, points map[uint64]*core.CostStats) *core.Profiles {
	ps := &core.Profiles{
		Symbols: trace.NewSymbolTable(),
		ByKey:   make(map[core.Key]*core.Profile),
		Events:  len(names),
	}
	for i, name := range names {
		id := ps.Symbols.Intern(name)
		for _, th := range threads {
			ps.ByKey[core.Key{Routine: id, Thread: th}] = &core.Profile{
				Routine: id, Thread: th,
				Calls: uint64(i + 1), SumRMS: 2, SumDRMS: 3, FirstReads: 4,
				InducedThread: 5, InducedExternal: 6, TotalCost: math.MaxUint64,
				DRMSPoints: points, RMSPoints: points,
			}
		}
	}
	return ps
}

// edgeProfiles are hand-built documents covering every branch of the
// encoder: the optional objects, string escaping, float formatting and
// empty collections.
func edgeProfiles() map[string]*core.Profiles {
	pts := func(sumsqs ...float64) map[uint64]*core.CostStats {
		m := make(map[uint64]*core.CostStats)
		for i, s := range sumsqs {
			m[uint64(len(sumsqs)-i)*7] = &core.CostStats{Count: uint64(i), Max: math.MaxUint64, Min: 0, Sum: uint64(i) << 40, SumSq: s}
		}
		return m
	}
	one := pts(1)
	out := map[string]*core.Profiles{
		"nil ByKey":   {Symbols: trace.NewSymbolTable()},
		"empty ByKey": {Symbols: trace.NewSymbolTable(), ByKey: map[core.Key]*core.Profile{}, Events: -3, Renumberings: 7},
		"nil points":  handProfiles([]string{"f"}, []trace.ThreadID{1}, nil),
		"empty points": handProfiles([]string{"f", "g"}, []trace.ThreadID{1, 2},
			map[uint64]*core.CostStats{}),
		"threads": handProfiles([]string{"b", "a", "c"}, []trace.ThreadID{3, -1, 0, math.MaxInt32, math.MinInt32}, one),
		"names": handProfiles([]string{
			"", "plain_name", "<script>", "a<b", "a&b", "x>y", `quo"te`, `back\slash`,
			"ctl\x00\x01\x07\b\f\n\r\t\x1b\x1f", "del\x7f", "naïve", "日本語", "emoji😀",
			"bad\xff\xfeutf8", "trunc\xe6\x97", "line\u2028sep\u2029", "/slash/", "'apos'",
		}, []trace.ThreadID{1}, one),
		"sumsq": handProfiles([]string{"f"}, []trace.ThreadID{1}, pts(
			0, math.Copysign(0, -1), 1, -1, 0.1, 123456789.125, 1e20,
			1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21, 1e22, 1.5e100, math.MaxFloat64,
			1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), 1e-7, -1e-7, 9.99e-10, 1e-10, 1.5e-300,
			math.SmallestNonzeroFloat64, 18446744073709551615, 1<<53+1,
		)),
	}
	drops := handProfiles([]string{"f"}, []trace.ThreadID{1}, one)
	drops.Drops = core.DropStats{
		ReturnWithoutCall: 1, UnknownRoutine: 2, BadThread: 3, AfterFinish: 4,
		InvalidKind: 5, DepthOverflow: 6, SampledOut: math.MaxUint64,
	}
	drops.Corruption = trace.CorruptionStats{FramesDropped: 1, EventsDropped: 2, BytesSkipped: math.MaxInt64, Truncated: true}
	out["every drop and corruption field"] = drops

	some := handProfiles([]string{"f"}, []trace.ThreadID{1}, one)
	some.Drops = core.DropStats{BadThread: 9, SampledOut: 1}
	some.Corruption = trace.CorruptionStats{EventsDropped: -4}
	out["some drop and corruption fields"] = some

	for i, f := range []string{"ReturnWithoutCall", "UnknownRoutine", "BadThread", "AfterFinish", "InvalidKind", "DepthOverflow", "SampledOut"} {
		ps := &core.Profiles{Symbols: trace.NewSymbolTable()}
		reflect.ValueOf(&ps.Drops).Elem().FieldByName(f).SetUint(uint64(i + 1))
		out["drops."+f] = ps
	}
	out["truncated only"] = &core.Profiles{Symbols: trace.NewSymbolTable(), Corruption: trace.CorruptionStats{Truncated: true}}
	out["frames only"] = &core.Profiles{Symbols: trace.NewSymbolTable(), Corruption: trace.CorruptionStats{FramesDropped: -1}}

	// Drop counters whose uint64 sum wraps to zero must still be written.
	out["wrapping drops"] = &core.Profiles{Symbols: trace.NewSymbolTable(), Drops: core.DropStats{
		ReturnWithoutCall: 1 << 63, UnknownRoutine: 1 << 63,
	}}
	return out
}

// checkMatchesReference asserts that Marshal and Write produce exactly the
// reflective reference encoder's bytes for ps.
func checkMatchesReference(t *testing.T, name string, ps *core.Profiles) {
	t.Helper()
	var want bytes.Buffer
	if err := referenceWrite(&want, ps); err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	got, err := Marshal(ps)
	if err != nil {
		t.Fatalf("%s: Marshal: %v", name, err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("%s: Marshal differs from encoding/json at byte %d:\n got: %q\nwant: %q",
			name, mismatchAt(got, want.Bytes()), excerpt(got, want.Bytes()), excerpt(want.Bytes(), got))
	}
	if cap(got) != len(got) {
		t.Errorf("%s: Marshal returned cap %d for a %d-byte document", name, cap(got), len(got))
	}
	var w bytes.Buffer
	if err := Write(&w, ps); err != nil || !bytes.Equal(w.Bytes(), got) {
		t.Fatalf("%s: Write differs from Marshal (err %v)", name, err)
	}
}

func mismatchAt(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// excerpt returns the bytes of a around its first difference from b.
func excerpt(a, b []byte) []byte {
	i := mismatchAt(a, b)
	return a[max(i-60, 0):min(i+60, len(a))]
}

// TestWriteMatchesReference holds the one-pass encoder to the reflective
// encoding/json writer it replaced, byte for byte.
func TestWriteMatchesReference(t *testing.T) {
	for _, scale := range []int{1, 10} {
		for i, ps := range suiteProfiles(t, scale) {
			checkMatchesReference(t, fmt.Sprintf("suite %s ×%d", workloads.FullSuite()[i].Name, scale), ps)
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		tr := trace.Random(trace.RandomConfig{Seed: seed, Ops: 400})
		for _, cfg := range []core.Config{core.DefaultConfig(), {FaultPolicy: core.FaultCount, Limits: core.Limits{MaxDepth: 2}}} {
			ps, err := core.Run(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkMatchesReference(t, fmt.Sprintf("random seed %d", seed), ps)
		}
	}
	for name, ps := range edgeProfiles() {
		checkMatchesReference(t, name, ps)
	}
}

// TestWriteRejectsNonFinite: NaN and infinities have no JSON form; Marshal
// fails on them as encoding/json does.
func TestWriteRejectsNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		ps := handProfiles([]string{"f"}, []trace.ThreadID{1}, map[uint64]*core.CostStats{
			1: {Count: 1, SumSq: 1}, 2: {Count: 1, SumSq: f},
		})
		if err := referenceWrite(&bytes.Buffer{}, ps); err == nil {
			t.Fatalf("sumsq %v: reference encoder accepted it", f)
		}
		if doc, err := Marshal(ps); err == nil {
			t.Errorf("sumsq %v: Marshal returned no error (%d bytes)", f, len(doc))
		}
		if err := Write(&bytes.Buffer{}, ps); err == nil {
			t.Errorf("sumsq %v: Write returned no error", f)
		}
	}
}

// TestMarshalConcurrent: encoders are pooled, so concurrent Marshal and
// Write calls of different documents must each get their own document.
func TestMarshalConcurrent(t *testing.T) {
	docs := suiteProfiles(t, 1)
	want := make([][]byte, len(docs))
	for i, ps := range docs {
		var buf bytes.Buffer
		if err := referenceWrite(&buf, ps); err != nil {
			t.Fatal(err)
		}
		want[i] = buf.Bytes()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				for i := range docs {
					j := (i + g) % len(docs)
					got, err := Marshal(docs[j])
					if err != nil || !bytes.Equal(got, want[j]) {
						t.Errorf("goroutine %d: Marshal of document %d differs (err %v)", g, j, err)
						return
					}
					var w bytes.Buffer
					if err := Write(&w, docs[j]); err != nil || !bytes.Equal(w.Bytes(), want[j]) {
						t.Errorf("goroutine %d: Write of document %d differs (err %v)", g, j, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
