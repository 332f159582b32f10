package aprof

// Randomized property tests of the concurrent ingestion layer: on random
// valid multi-thread traces, every activation must satisfy the paper's
// invariants, and the pipelined / concurrent paths must produce profiles
// byte-identical (under WriteProfiles) to the sequential path.

import (
	"bytes"
	"context"
	"testing"

	"aprof/internal/trace"
)

// randomCases is the table of generator configurations the property tests
// sweep: small and large traces, single- and many-threaded, tight and wide
// address spaces.
var randomCases = []trace.RandomConfig{
	{Seed: 1, Ops: 50},
	{Seed: 2, Ops: 400},
	{Seed: 3, Threads: 1, Ops: 600},
	{Seed: 4, Threads: 6, Ops: 1200, Cells: 8},
	{Seed: 5, Threads: 2, Ops: 2500, Cells: 128, MaxDepth: 10},
	{Seed: 6, Threads: 4, Ops: 5000},
}

func profilesBytes(t *testing.T, ps *Profiles) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteProfiles(&buf, ps); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRandomTraceActivationInvariants asserts, for every collected
// activation of every random trace, Inequality 1 of the paper (drms >= rms)
// and the drms decomposition (first-reads + thread-induced +
// external-induced = drms).
func TestRandomTraceActivationInvariants(t *testing.T) {
	for _, rc := range randomCases {
		tr := trace.Random(rc)
		if err := tr.Validate(); err != nil {
			t.Fatalf("seed %d: invalid generated trace: %v", rc.Seed, err)
		}
		activations := 0
		cfg := DefaultConfig()
		cfg.OnActivation = func(a ActivationRecord) {
			activations++
			if a.DRMS < a.RMS {
				t.Errorf("seed %d: activation of %d violates Inequality 1: drms=%d < rms=%d",
					rc.Seed, a.Routine, a.DRMS, a.RMS)
			}
			if a.FirstReads+a.InducedThread+a.InducedExternal != a.DRMS {
				t.Errorf("seed %d: drms decomposition broken: %d+%d+%d != %d",
					rc.Seed, a.FirstReads, a.InducedThread, a.InducedExternal, a.DRMS)
			}
		}
		if _, err := ProfileTrace(tr, cfg); err != nil {
			t.Fatalf("seed %d: %v", rc.Seed, err)
		}
		if activations == 0 {
			t.Errorf("seed %d: no activations collected", rc.Seed)
		}
	}
}

// TestPipelinedStreamByteIdentical checks that the pipelined
// ProfileTraceStream produces WriteProfiles output byte-identical to
// sequential ProfileTrace on every random trace.
func TestPipelinedStreamByteIdentical(t *testing.T) {
	for _, rc := range randomCases {
		tr := trace.Random(rc)
		want, err := ProfileTrace(tr, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		var enc bytes.Buffer
		if err := trace.WriteBinary(&enc, tr); err != nil {
			t.Fatal(err)
		}
		got, err := ProfileTraceStream(bytes.NewReader(enc.Bytes()), DefaultConfig())
		if err != nil {
			t.Fatalf("seed %d: %v", rc.Seed, err)
		}
		if !bytes.Equal(profilesBytes(t, got), profilesBytes(t, want)) {
			t.Errorf("seed %d: pipelined stream output differs from sequential", rc.Seed)
		}
		// A tiny batch size stresses every pipeline boundary the same way.
		got, err = ProfileTraceStreamContext(context.Background(), bytes.NewReader(enc.Bytes()),
			DefaultConfig(), StreamOptions{BatchSize: 3, Depth: 1})
		if err != nil {
			t.Fatalf("seed %d: %v", rc.Seed, err)
		}
		if !bytes.Equal(profilesBytes(t, got), profilesBytes(t, want)) {
			t.Errorf("seed %d: small-batch pipeline output differs from sequential", rc.Seed)
		}
	}
}

// TestRunConcurrentByteIdentical checks that parallel orchestration never
// changes results: RunConcurrent over N random traces serializes to exactly
// the bytes of the sequential profile-then-fold path.
func TestRunConcurrentByteIdentical(t *testing.T) {
	var jobs []Job
	var runs []*Profiles
	for _, rc := range randomCases {
		tr := trace.Random(rc)
		jobs = append(jobs, TraceJob(tr))
		ps, err := ProfileTrace(tr, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, ps)
	}
	want := profilesBytes(t, MergeRuns(runs...))
	for _, workers := range []int{1, 2, 4, 8} {
		got, err := RunConcurrent(context.Background(), jobs, DefaultConfig(), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(profilesBytes(t, got), want) {
			t.Errorf("workers=%d: concurrent output differs from sequential fold", workers)
		}
	}
}
