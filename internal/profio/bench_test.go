package profio

// Streaming-pipeline micro-benchmarks (diagnostics, `make bench-all`),
// including the instrumented-vs-bare pair behind the ≤5% observability
// overhead bound (obs_overhead_test.go).

import (
	"bytes"
	"context"
	"testing"

	"aprof/internal/core"
	"aprof/internal/obs"
	"aprof/internal/trace"
)

// benchStream encodes one synthetic multithreaded trace per format, shared
// by every benchmark in this file.
func benchStream(b *testing.B, v2 bool) []byte {
	b.Helper()
	tr := trace.Random(trace.RandomConfig{Seed: 1, Ops: 20000})
	var buf bytes.Buffer
	var err error
	if v2 {
		err = trace.WriteBinary2(&buf, tr)
	} else {
		err = trace.WriteBinary(&buf, tr)
	}
	if err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func benchProfileStream(b *testing.B, data []byte, cfg core.Config) {
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps, err := ProfileStream(context.Background(), bytes.NewReader(data), cfg, StreamOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if ps.Events == 0 {
			b.Fatal("empty profiles")
		}
	}
}

// BenchmarkProfileStream is the bare pipeline: no registry, so the
// observability layer compiles down to one nil check per event.
func BenchmarkProfileStream(b *testing.B) {
	benchProfileStream(b, benchStream(b, false), core.DefaultConfig())
}

// BenchmarkProfileStreamObs is the same run with a live registry: per-kind
// event counters on the hot path plus batch-boundary publication. The gap to
// BenchmarkProfileStream is the observability overhead; BenchmarkObsOverhead
// reports it directly as overhead_pct.
func BenchmarkProfileStreamObs(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.Obs = obs.NewRegistry()
	benchProfileStream(b, benchStream(b, false), cfg)
}

// BenchmarkProfileStreamV2 streams the framed APT2 encoding, adding CRC
// verification and frame accounting to the decode stage.
func BenchmarkProfileStreamV2(b *testing.B) {
	benchProfileStream(b, benchStream(b, true), core.DefaultConfig())
}

// BenchmarkWrite encodes the 15 suite profiles at ×10 rounds, the shape of
// an ingest-bulk session result, one document per iteration.
func BenchmarkWrite(b *testing.B) {
	docs := suiteProfiles(b, 10)
	var total int64
	for _, ps := range docs {
		doc, err := Marshal(ps)
		if err != nil {
			b.Fatal(err)
		}
		total += int64(len(doc))
	}
	b.ReportAllocs()
	b.SetBytes(total / int64(len(docs)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc, err := Marshal(docs[i%len(docs)])
		if err != nil {
			b.Fatal(err)
		}
		benchDoc = doc
	}
}

var benchDoc []byte

// BenchmarkRead decodes profile documents as Marshal writes them: a VM
// application's profile (~2.5 KB, the shape offline-vm reads back after
// each op) and a ×10 suite profile (an ingest-bulk session result).
func BenchmarkRead(b *testing.B) {
	for _, bc := range []struct {
		name string
		ps   *core.Profiles
	}{
		{"vm", vmProfiles(b)[0]},
		{"suite", suiteProfiles(b, 10)[0]},
	} {
		b.Run(bc.name, func(b *testing.B) {
			doc, err := Marshal(bc.ps)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(len(doc)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Read(bytes.NewReader(doc)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
