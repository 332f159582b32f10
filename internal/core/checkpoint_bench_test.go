package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"aprof/internal/trace"
	"aprof/internal/workloads"
)

// suiteTracePath is a committed suite-sized session trace (the swim
// benchmark of the workload suite at its default rounds, APT2-encoded).
var suiteTracePath = filepath.Join("testdata", "suite_swim.apt2")

// ckptBenchEvery is the checkpoint cadence of the checkpoint benchmarks in
// events: a daemon with 256-event batches checkpointing every 2 batches.
const ckptBenchEvery = 512

// TestGenerateSuiteTrace regenerates the committed suite trace. Run with
// CORE_GEN_TESTDATA=1; a normal run only checks that the file decodes.
func TestGenerateSuiteTrace(t *testing.T) {
	if os.Getenv("CORE_GEN_TESTDATA") != "" {
		var buf bytes.Buffer
		for _, b := range workloads.FullSuite() {
			if b.Name == "swim" {
				if err := trace.WriteBinary2(&buf, b.Build()); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := os.WriteFile(suiteTracePath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if tr := readSuiteTrace(t); len(tr.Events) < 2*ckptBenchEvery {
		t.Fatalf("suite trace has %d events, want at least %d", len(tr.Events), 2*ckptBenchEvery)
	}
}

func readSuiteTrace(tb testing.TB) *trace.Trace {
	tb.Helper()
	f, err := os.Open(suiteTracePath)
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.ReadBinary(f)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// boundaryCheckpoints profiles the suite trace under DefaultConfig and
// returns the checkpoint taken at every ckptBenchEvery-event boundary.
func boundaryCheckpoints(tb testing.TB) [][]byte {
	tr := readSuiteTrace(tb)
	p := NewProfiler(tr.Symbols, DefaultConfig())
	var docs [][]byte
	for i := range tr.Events {
		if err := p.HandleEvent(&tr.Events[i]); err != nil {
			tb.Fatal(err)
		}
		if (i+1)%ckptBenchEvery == 0 {
			var buf bytes.Buffer
			if err := p.WriteCheckpoint(&buf, StreamState{EventsDelivered: uint64(i + 1)}); err != nil {
				tb.Fatal(err)
			}
			docs = append(docs, buf.Bytes())
		}
	}
	return docs
}

// BenchmarkWriteCheckpoint measures one checkpoint of a suite session,
// cycling through the states at its 512-event boundaries (each rebuilt by
// a resume, which reproduces the original state exactly). KB/ckpt is the
// mean document size.
func BenchmarkWriteCheckpoint(b *testing.B) {
	docs := boundaryCheckpoints(b)
	profilers := make([]*Profiler, len(docs))
	for i, doc := range docs {
		p, _, err := ResumeProfiler(bytes.NewReader(doc), DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		profilers[i] = p
	}
	var buf bytes.Buffer
	var written int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := profilers[i%len(profilers)]
		buf.Reset()
		if err := p.WriteCheckpoint(&buf, StreamState{EventsDelivered: uint64(i)}); err != nil {
			b.Fatal(err)
		}
		written += buf.Len()
	}
	b.ReportMetric(float64(written)/1024/float64(b.N), "KB/ckpt")
}

// BenchmarkResumeProfiler measures rebuilding a profiler from one of the
// suite session's boundary checkpoints.
func BenchmarkResumeProfiler(b *testing.B) {
	docs := boundaryCheckpoints(b)
	var read int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc := docs[i%len(docs)]
		if _, _, err := ResumeProfiler(bytes.NewReader(doc), DefaultConfig()); err != nil {
			b.Fatal(err)
		}
		read += len(doc)
	}
	b.ReportMetric(float64(read)/1024/float64(b.N), "KB/ckpt")
}
