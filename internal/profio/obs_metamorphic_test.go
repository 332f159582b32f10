package profio

// Metamorphic differential tests for the observability layer: attaching a
// metrics registry must never change what the profiler computes. The
// property is checked byte-for-byte on the serialized profiles (Write), the
// same equivalence oracle the checkpoint/resume and concurrency tests use,
// over random traces, the committed fuzz corpora (including corrupt and
// truncated seeds), and RunConcurrent with one registry shared across
// profilers (run under -race, this also proves the registry data-race-free).

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"aprof/internal/core"
	"aprof/internal/obs"
	"aprof/internal/trace"
)

// profileBytes streams data through ProfileStream under cfg and returns the
// serialized profiles (nil on error, with the error).
func profileBytes(t *testing.T, data []byte, cfg core.Config, opts StreamOptions) ([]byte, error) {
	t.Helper()
	ps, err := ProfileStream(context.Background(), bytes.NewReader(data), cfg, opts)
	if err != nil {
		return nil, err
	}
	return writeBytes(t, ps), nil
}

// checkMetamorphic profiles data twice — registry nil vs fresh registry —
// and asserts identical outcomes: same error (or none) and byte-identical
// profiles. Returns the registry for callers wanting metric assertions.
func checkMetamorphic(t *testing.T, name string, data []byte, cfg core.Config, opts StreamOptions) *obs.Registry {
	t.Helper()
	cfg.Obs = nil
	bare, bareErr := profileBytes(t, data, cfg, opts)
	reg := obs.NewRegistry()
	cfg.Obs = reg
	instr, instrErr := profileBytes(t, data, cfg, opts)

	if (bareErr == nil) != (instrErr == nil) {
		t.Fatalf("%s: registry changed the error: nil-obs err=%v, obs err=%v", name, bareErr, instrErr)
	}
	if bareErr != nil {
		if bareErr.Error() != instrErr.Error() {
			t.Errorf("%s: registry changed the error text:\n  nil-obs: %v\n  obs:     %v", name, bareErr, instrErr)
		}
		return reg
	}
	if !bytes.Equal(bare, instr) {
		t.Errorf("%s: registry changed the profile output (%d vs %d bytes)", name, len(bare), len(instr))
	}
	return reg
}

func TestObsMetamorphicRandom(t *testing.T) {
	for _, v2 := range []bool{false, true} {
		for seed := int64(1); seed <= 4; seed++ {
			tr := trace.Random(trace.RandomConfig{Seed: seed, Ops: 3000})
			var buf bytes.Buffer
			var err error
			if v2 {
				err = trace.WriteBinary2(&buf, tr)
			} else {
				err = trace.WriteBinary(&buf, tr)
			}
			if err != nil {
				t.Fatal(err)
			}
			name := "apt1"
			if v2 {
				name = "apt2"
			}
			name += "/seed" + strconv.FormatInt(seed, 10)

			const batchSize = 256
			reg := checkMetamorphic(t, name, buf.Bytes(), core.DefaultConfig(), StreamOptions{BatchSize: batchSize})

			// The flow counters must count every event and batch exactly
			// once: sum(events_*) == len(trace) and batches == ⌈len/256⌉.
			// Deterministic, so tier-1 gates the instrumentation on these
			// instead of on wall-clock overhead.
			snap := reg.Snapshot()
			if got := snap.Scope(core.ObsScopeCore).CounterSum("events_"); got != uint64(tr.Len()) {
				t.Errorf("%s: events counters sum to %d, trace has %d", name, got, tr.Len())
			}
			wantBatches := uint64((tr.Len() + batchSize - 1) / batchSize)
			if got := snap.Scope(ObsScopeProfio).Counter("batches"); got != wantBatches {
				t.Errorf("%s: profio batches = %d, want %d", name, got, wantBatches)
			}
		}
	}
}

// TestObsMetamorphicCorpora replays every committed FuzzReadTrace seed —
// valid, corrupt-CRC and truncated alike — through the lenient,
// fault-counting configuration, where the drop and resync counters are
// exercised for real.
func TestObsMetamorphicCorpora(t *testing.T) {
	dir := filepath.Join("..", "trace", "testdata", "fuzz", "FuzzReadTrace")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("fuzz corpus missing: %v", err)
	}
	if len(entries) == 0 {
		t.Fatal("empty fuzz corpus")
	}
	for _, e := range entries {
		data, err := readCorpusSeed(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		cfg := core.DefaultConfig()
		cfg.FaultPolicy = core.FaultCount
		checkMetamorphic(t, e.Name(), data, cfg, StreamOptions{Lenient: true, BatchSize: 64})
	}
}

// readCorpusSeed parses one go-fuzz corpus file ("go test fuzz v1" header
// followed by a []byte(...) literal per input).
func readCorpusSeed(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.SplitN(strings.TrimSpace(string(raw)), "\n", 2)
	if len(lines) != 2 {
		return nil, os.ErrInvalid
	}
	lit := strings.TrimSpace(lines[1])
	lit = strings.TrimPrefix(lit, "[]byte(")
	lit = strings.TrimSuffix(lit, ")")
	s, err := strconv.Unquote(lit)
	if err != nil {
		return nil, err
	}
	return []byte(s), nil
}

// TestObsRunConcurrentSharedRegistry profiles independent traces through
// RunConcurrent with every profiler publishing into ONE shared registry.
// Under -race this proves the registry and the delta-publishing in
// PublishObs are data-race-free; the output must stay byte-identical to the
// registry-free run, and the shared counters must sum the whole fleet.
func TestObsRunConcurrentSharedRegistry(t *testing.T) {
	const jobsN = 6
	traces := make([]*trace.Trace, jobsN)
	var total uint64
	for i := range traces {
		traces[i] = trace.Random(trace.RandomConfig{Seed: int64(i + 40), Ops: 1500})
		total += uint64(traces[i].Len())
	}
	mkJobs := func() []core.Job {
		jobs := make([]core.Job, jobsN)
		for i := range jobs {
			tr := traces[i]
			jobs[i] = func(context.Context) (*trace.Trace, error) { return tr, nil }
		}
		return jobs
	}

	cfg := core.DefaultConfig()
	bare, err := core.RunConcurrent(context.Background(), mkJobs(), cfg, 4)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	cfg.Obs = reg
	instr, err := core.RunConcurrent(context.Background(), mkJobs(), cfg, 4)
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(writeBytes(t, bare), writeBytes(t, instr)) {
		t.Error("shared registry changed RunConcurrent output")
	}
	snap := reg.Snapshot()
	if got := snap.Scope(core.ObsScopeCore).CounterSum("events_"); got != total {
		t.Errorf("shared events counters sum to %d, fleet processed %d", got, total)
	}
}

// TestObsEventCountsPerBatch: the core events_<kind> counters are
// published at batch boundaries, so when OnBatch runs after each profio
// batch — and after the run — every counter equals the events of its kind
// delivered so far. Two streams publish into one registry in turn, so the
// second stream's counts add to the first's.
func TestObsEventCountsPerBatch(t *testing.T) {
	reg := obs.NewRegistry()
	var want [trace.NumKinds]uint64
	check := func(when string) {
		t.Helper()
		cs := reg.Snapshot().Scope(core.ObsScopeCore)
		for k, n := range want {
			if got := cs.Counter("events_" + trace.Kind(k).String()); got != n {
				t.Errorf("%s: events_%s = %d, want %d", when, trace.Kind(k), got, n)
			}
		}
	}
	for _, seed := range []int64{21, 22} {
		tr := trace.Random(trace.RandomConfig{Seed: seed, Ops: 1500, Threads: 3})
		var buf bytes.Buffer
		if err := trace.WriteBinary2(&buf, tr); err != nil {
			t.Fatal(err)
		}
		before := want
		batches := 0
		opts := StreamOptions{BatchSize: 200, OnBatch: func(batch int, delivered uint64) error {
			batches++
			want = before
			for _, ev := range tr.Events[:delivered] {
				want[ev.Kind]++
			}
			check("seed " + strconv.FormatInt(seed, 10) + ", batch " + strconv.Itoa(batch))
			return nil
		}}
		cfg := core.DefaultConfig()
		cfg.Obs = reg
		if _, err := ProfileStream(context.Background(), &buf, cfg, opts); err != nil {
			t.Fatal(err)
		}
		if batches < 2 {
			t.Fatalf("seed %d: %d batches, want several", seed, batches)
		}
		check("seed " + strconv.FormatInt(seed, 10) + ", after the run")
	}
}
