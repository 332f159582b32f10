package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"aprof/internal/trace"
)

// randomTrace generates a random multi-threaded trace with kernel I/O,
// nested calls and shared addresses — the adversarial input for the
// differential tests.
func randomTrace(rng *rand.Rand, events int) *trace.Trace {
	b := trace.NewBuilder()
	numThreads := 1 + rng.Intn(4)
	type tstate struct {
		tb    *trace.ThreadBuilder
		depth int
	}
	threads := make([]*tstate, numThreads)
	for i := range threads {
		threads[i] = &tstate{tb: b.Thread(trace.ThreadID(i + 1))}
	}
	routines := []string{"main", "f", "g", "h", "leaf", "worker"}
	const addrSpace = 24
	for i := 0; i < events; i++ {
		t := threads[rng.Intn(numThreads)]
		addr := trace.Addr(rng.Intn(addrSpace))
		size := uint32(1 + rng.Intn(3))
		switch op := rng.Intn(10); {
		case op < 2: // call
			if t.depth < 6 {
				t.tb.Call(routines[rng.Intn(len(routines))])
				t.depth++
			}
		case op < 3: // return
			if t.depth > 0 {
				t.tb.Ret()
				t.depth--
			}
		case op < 6: // read
			t.tb.Read(addr, size)
		case op < 8: // write
			t.tb.Write(addr, size)
		case op < 9: // kernel fills buffer
			t.tb.SysRead(addr, size)
		default: // kernel drains buffer
			t.tb.SysWrite(addr, size)
		}
		if rng.Intn(20) == 0 {
			t.tb.Work(uint64(rng.Intn(50)))
		}
	}
	return b.Trace()
}

// profileSummary flattens a Profiles value for comparison.
type profileSummary struct {
	Key             Key
	Calls           uint64
	SumRMS          uint64
	SumDRMS         uint64
	FirstReads      uint64
	InducedThread   uint64
	InducedExternal uint64
	DRMSPoints      string
	RMSPoints       string
}

func summarize(ps *Profiles) []profileSummary {
	out := make([]profileSummary, 0, len(ps.ByKey))
	for k, p := range ps.ByKey {
		out = append(out, profileSummary{
			Key:             k,
			Calls:           p.Calls,
			SumRMS:          p.SumRMS,
			SumDRMS:         p.SumDRMS,
			FirstReads:      p.FirstReads,
			InducedThread:   p.InducedThread,
			InducedExternal: p.InducedExternal,
			DRMSPoints:      pointsString(p.DRMSPoints),
			RMSPoints:       pointsString(p.RMSPoints),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key.Routine != out[j].Key.Routine {
			return out[i].Key.Routine < out[j].Key.Routine
		}
		return out[i].Key.Thread < out[j].Key.Thread
	})
	return out
}

func pointsString(points map[uint64]*CostStats) string {
	type kv struct {
		n  uint64
		st CostStats
	}
	flat := make([]kv, 0, len(points))
	for n, st := range points {
		flat = append(flat, kv{n, *st})
	}
	sort.Slice(flat, func(i, j int) bool { return flat[i].n < flat[j].n })
	s := ""
	for _, e := range flat {
		s += fmt.Sprintf("(%d:n=%d max=%d min=%d sum=%d)", e.n, e.st.Count, e.st.Max, e.st.Min, e.st.Sum)
	}
	return s
}

var allConfigs = []struct {
	name string
	cfg  Config
}{
	{"full", Config{ThreadInput: true, ExternalInput: true}},
	{"thread-only", Config{ThreadInput: true}},
	{"external-only", Config{ExternalInput: true}},
	{"rms-only", Config{}},
}

// TestDifferentialAgainstNaive cross-checks the timestamping algorithm
// against the set-based oracle on random traces and on the leaf-span trace,
// for every input-source configuration.
func TestDifferentialAgainstNaive(t *testing.T) {
	for _, tc := range allConfigs {
		t.Run(tc.name, func(t *testing.T) {
			tr := leafSpanTrace()
			fast, err := Run(tr, tc.cfg)
			if err != nil {
				t.Fatalf("leaf-span trace: Run: %v", err)
			}
			slow, err := RunNaive(tr, tc.cfg)
			if err != nil {
				t.Fatalf("leaf-span trace: RunNaive: %v", err)
			}
			if fs, ss := summarize(fast), summarize(slow); !reflect.DeepEqual(fs, ss) {
				t.Fatalf("leaf-span trace: profiles diverge\nfast: %+v\nnaive: %+v", fs, ss)
			}
			for seed := int64(0); seed < 40; seed++ {
				rng := rand.New(rand.NewSource(seed))
				tr := randomTrace(rng, 200+rng.Intn(600))
				if err := tr.Validate(); err != nil {
					t.Fatalf("seed %d: invalid generated trace: %v", seed, err)
				}
				fast, err := Run(tr, tc.cfg)
				if err != nil {
					t.Fatalf("seed %d: Run: %v", seed, err)
				}
				slow, err := RunNaive(tr, tc.cfg)
				if err != nil {
					t.Fatalf("seed %d: RunNaive: %v", seed, err)
				}
				fs, ss := summarize(fast), summarize(slow)
				if !reflect.DeepEqual(fs, ss) {
					t.Fatalf("seed %d: profiles diverge\nfast: %+v\nnaive: %+v", seed, fs, ss)
				}
			}
		})
	}
}

// TestDifferentialWithRenumbering repeats the differential test with a tiny
// counter limit so that the run performs many renumberings; results must be
// identical to the oracle (which has no counter at all).
func TestDifferentialWithRenumbering(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		tr := randomTrace(rng, 2000)
		cfg := DefaultConfig()
		// Large enough for the live timestamps of the random traces (a few
		// threads over a 24-cell address space), small enough that each run
		// renumbers several times.
		cfg.CounterLimit = 300
		fast, err := Run(tr, cfg)
		if err != nil {
			t.Fatalf("seed %d: Run: %v", seed, err)
		}
		if fast.Renumberings == 0 {
			t.Fatalf("seed %d: expected renumberings with limit 64", seed)
		}
		slow, err := RunNaive(tr, DefaultConfig())
		if err != nil {
			t.Fatalf("seed %d: RunNaive: %v", seed, err)
		}
		fs, ss := summarize(fast), summarize(slow)
		if !reflect.DeepEqual(fs, ss) {
			t.Fatalf("seed %d: renumbered run diverges from oracle\nfast: %+v\nnaive: %+v", seed, fs, ss)
		}
	}
}

// TestRenumberingLimitTooSmall verifies that an impossible counter limit is
// reported as an error instead of corrupting timestamps.
func TestRenumberingLimitTooSmall(t *testing.T) {
	b := trace.NewBuilder()
	tb := b.Thread(1)
	// 10 nested pending activations hold 10 live stack timestamps; a limit
	// of 4 cannot accommodate them.
	for i := 0; i < 10; i++ {
		tb.Call("f")
		tb.Write1(trace.Addr(uint64(i)))
		tb.Read1(trace.Addr(uint64(i)))
	}
	tr := b.Trace()
	// Drop the dangling returns so the stack stays deep during the run.
	var kept []trace.Event
	for _, ev := range tr.Events {
		if ev.Kind == trace.KindReturn {
			continue
		}
		kept = append(kept, ev)
	}
	tr.Events = kept

	cfg := DefaultConfig()
	cfg.CounterLimit = 4
	if _, err := Run(tr, cfg); err == nil {
		t.Fatal("expected an error for counter limit smaller than live timestamps")
	}
}

// TestPerActivationParity compares the exact sequence of collected
// activations between the two implementations.
func TestPerActivationParity(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(7000 + seed))
		tr := randomTrace(rng, 500)

		var fastRecs, slowRecs []ActivationRecord
		cfgFast := DefaultConfig()
		cfgFast.OnActivation = func(r ActivationRecord) { fastRecs = append(fastRecs, r) }
		if _, err := Run(tr, cfgFast); err != nil {
			t.Fatal(err)
		}
		cfgSlow := DefaultConfig()
		cfgSlow.OnActivation = func(r ActivationRecord) { slowRecs = append(slowRecs, r) }
		if _, err := RunNaive(tr, cfgSlow); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fastRecs, slowRecs) {
			t.Fatalf("seed %d: activation streams diverge (%d vs %d records)", seed, len(fastRecs), len(slowRecs))
		}
		for _, r := range fastRecs {
			if r.DRMS < r.RMS {
				t.Errorf("seed %d: drms %d < rms %d", seed, r.DRMS, r.RMS)
			}
		}
	}
}

// TestMonotoneConfigs checks that enabling more input sources never
// decreases any activation's drms (config monotonicity).
func TestMonotoneConfigs(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(9000 + seed))
		tr := randomTrace(rng, 400)
		drmsOf := func(cfg Config) []uint64 {
			var out []uint64
			cfg.OnActivation = func(r ActivationRecord) { out = append(out, r.DRMS) }
			if _, err := Run(tr, cfg); err != nil {
				t.Fatal(err)
			}
			return out
		}
		full := drmsOf(Config{ThreadInput: true, ExternalInput: true})
		threadOnly := drmsOf(Config{ThreadInput: true})
		extOnly := drmsOf(Config{ExternalInput: true})
		none := drmsOf(Config{})
		if len(full) != len(none) || len(threadOnly) != len(extOnly) {
			t.Fatalf("seed %d: activation count mismatch across configs", seed)
		}
		for i := range full {
			if threadOnly[i] > full[i] || extOnly[i] > full[i] || none[i] > threadOnly[i] || none[i] > extOnly[i] {
				t.Errorf("seed %d: activation %d: non-monotone drms: none=%d thread=%d ext=%d full=%d",
					seed, i, none[i], threadOnly[i], extOnly[i], full[i])
			}
		}
	}
}
