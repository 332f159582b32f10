package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"aprof/internal/shadow"
	"aprof/internal/trace"
)

// frameCheckpoint wraps payload in a valid APCK header: current version,
// exact length, matching CRC.
func frameCheckpoint(payload []byte) []byte {
	doc := append([]byte(checkpointMagic), checkpointVersion)
	doc = binary.LittleEndian.AppendUint32(doc, uint32(len(payload)))
	doc = binary.LittleEndian.AppendUint32(doc, crc32.ChecksumIEEE(payload))
	return append(doc, payload...)
}

// leafBoundaryTrace touches cells on both sides of a leaf-chunk boundary
// and in a second level-1 node, so its checkpoint holds runs that split at
// a leaf boundary (gap 0) and a gap across the address space.
func leafBoundaryTrace() *trace.Trace {
	b := trace.NewBuilder()
	t1, t2 := b.Thread(1), b.Thread(2)
	t1.Call("fill")
	t2.Call("scan")
	t1.SysRead(shadow.LeafCells-6, 12)
	t1.Write(3<<40, 5)
	t2.Read(shadow.LeafCells-6, 12)
	t2.Read(3<<40, 2)
	t1.Ret()
	return b.Trace()
}

// checkpointFuzzSeeds returns the payloads (header stripped) of real
// checkpoints taken under DefaultConfig: a small multi-thread trace
// checkpointed mid-run at two cut points, an empty profiler, and the
// leaf-boundary trace mid-activation. The same payloads back the committed
// corpus under testdata/fuzz/FuzzResumeCheckpoint.
func checkpointFuzzSeeds(tb testing.TB) [][]byte {
	cfg := DefaultConfig()
	seq := func(tr *trace.Trace, n int) []byte {
		p := NewProfiler(tr.Symbols, cfg)
		for i := 0; i < n; i++ {
			if err := p.HandleEvent(&tr.Events[i]); err != nil {
				tb.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := p.WriteCheckpoint(&buf, StreamState{EventsDelivered: uint64(n)}); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	tr := trace.Random(trace.RandomConfig{Seed: 31, Threads: 3, Ops: 160, Cells: 24})
	var seeds [][]byte
	for _, doc := range [][]byte{
		seq(tr, len(tr.Events)/3),
		seq(tr, 2*len(tr.Events)/3),
		seq(trace.Random(trace.RandomConfig{Seed: 31}), 0),
		seq(leafBoundaryTrace(), 5),
	} {
		seeds = append(seeds, doc[ckptHeaderLen:])
	}
	return seeds
}

// TestGenerateCheckpointCorpus regenerates the committed FuzzResumeCheckpoint
// seed corpus. Run with CORE_GEN_TESTDATA=1 after changing the checkpoint
// format; a normal run only checks that every committed seed resumes.
func TestGenerateCheckpointCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzResumeCheckpoint")
	if os.Getenv("CORE_GEN_TESTDATA") != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, s := range checkpointFuzzSeeds(t) {
			body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(s)) + ")\n"
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("checkpoint corpus missing: %v", err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lit := strings.TrimSpace(strings.TrimPrefix(string(raw), "go test fuzz v1\n"))
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if _, _, err := ResumeProfiler(bytes.NewReader(frameCheckpoint([]byte(s))), DefaultConfig()); err != nil {
			t.Errorf("%s: committed seed is not a resumable checkpoint (regenerate with CORE_GEN_TESTDATA=1): %v", e.Name(), err)
		}
	}
}

// FuzzResumeCheckpoint frames arbitrary payload bytes with a valid APCK
// header and CRC, so every input reaches the decoder proper. ResumeProfiler
// must return a profiler or an error wrapping ErrCheckpointCorrupt (or the
// configuration-mismatch refusal, for a well-formed envelope taken under
// other settings) — never panic — and a resumed profiler may hold no more
// leaf chunks than the payload has runs: each run costs at least three
// bytes (gap, length, one value) and stays inside one leaf.
func FuzzResumeCheckpoint(f *testing.F) {
	for _, s := range checkpointFuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		p, _, err := ResumeProfiler(bytes.NewReader(frameCheckpoint(payload)), DefaultConfig())
		if err != nil {
			if !errors.Is(err, ErrCheckpointCorrupt) && !strings.Contains(err.Error(), "different configuration") {
				t.Fatalf("error does not wrap ErrCheckpointCorrupt: %v", err)
			}
			return
		}
		leaves := p.w.LeafChunks()
		for _, th := range p.threads {
			leaves += th.ts.LeafChunks()
		}
		if leaves > len(payload)/3 {
			t.Fatalf("%d leaf chunks materialized from a %d-byte payload", leaves, len(payload))
		}
	})
}
