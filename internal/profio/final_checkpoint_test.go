package profio

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aprof/internal/core"
	"aprof/internal/trace"
)

// TestFinalCheckpointOnAbort checks the drain path of the daemon: a run
// interrupted by an OnBatch abort with FinalCheckpoint set must leave a
// checkpoint at the *last profiled batch* (not the last periodic cadence
// point), and resuming from it must be byte-identical to a clean run.
func TestFinalCheckpointOnAbort(t *testing.T) {
	tr := trace.Random(trace.RandomConfig{Seed: 71, Ops: 1200})
	enc := encodeTrace(t, tr)
	cfg := core.DefaultConfig()

	want, err := ProfileStream(context.Background(), bytes.NewReader(enc), cfg, StreamOptions{BatchSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := writeBytes(t, want)

	ckpt := filepath.Join(t.TempDir(), "ckpt")
	opts := StreamOptions{
		BatchSize:       128,
		CheckpointPath:  ckpt,
		CheckpointEvery: 1 << 20, // periodic checkpoints effectively off
		FinalCheckpoint: true,
	}
	var lastDelivered uint64
	opts.OnBatch = func(batch int, delivered uint64) error {
		lastDelivered = delivered
		if batch == 3 {
			return errKill
		}
		return nil
	}
	if _, err := ProfileStream(context.Background(), bytes.NewReader(enc), cfg, opts); !errors.Is(err, errKill) {
		t.Fatalf("abort not delivered: %v", err)
	}

	// The final checkpoint must reflect exactly the last profiled batch.
	_, doc, err := ReadCheckpointLog(ckpt)
	if err != nil {
		t.Fatalf("final checkpoint not written: %v", err)
	}
	state, err := core.ReadCheckpointState(bytes.NewReader(doc), cfg)
	if err != nil {
		t.Fatalf("reading final checkpoint state: %v", err)
	}
	if state.EventsDelivered != lastDelivered {
		t.Fatalf("checkpoint at %d events, want last batch at %d", state.EventsDelivered, lastDelivered)
	}

	got, err := ResumeStream(context.Background(), bytes.NewReader(enc), ckpt, cfg, StreamOptions{BatchSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(writeBytes(t, got), wantBytes) {
		t.Error("resume from final checkpoint diverges from uninterrupted run")
	}
}

// TestFinalCheckpointOnCancel covers SIGINT handling in cmd/aprof: context
// cancellation must produce a resumable final checkpoint.
func TestFinalCheckpointOnCancel(t *testing.T) {
	tr := trace.Random(trace.RandomConfig{Seed: 72, Ops: 1200})
	enc := encodeTrace(t, tr)
	cfg := core.DefaultConfig()

	want, err := ProfileStream(context.Background(), bytes.NewReader(enc), cfg, StreamOptions{BatchSize: 128})
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	opts := StreamOptions{
		BatchSize:       128,
		CheckpointPath:  ckpt,
		CheckpointEvery: 1 << 20,
		FinalCheckpoint: true,
		OnBatch: func(batch int, delivered uint64) error {
			if batch == 2 {
				cancel()
			}
			return nil
		},
	}
	_, err = ProfileStream(ctx, bytes.NewReader(enc), cfg, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation not delivered: %v", err)
	}
	got, err := ResumeStream(context.Background(), bytes.NewReader(enc), ckpt, cfg, StreamOptions{BatchSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(writeBytes(t, got), writeBytes(t, want)) {
		t.Error("resume from cancel checkpoint diverges from uninterrupted run")
	}
}

// TestNoFinalCheckpointAfterProfilerFailure: a profiler that failed
// mid-batch is not at a batch boundary; checkpointing it would be silent
// corruption. The option must refuse, leaving no file behind.
func TestNoFinalCheckpointAfterProfilerFailure(t *testing.T) {
	// A return without a matching call fails the profiler mid-batch.
	b := trace.NewBuilder()
	th := b.Thread(1)
	th.Call("main")
	th.Ret()
	tr := b.Trace()
	last := tr.Events[len(tr.Events)-1].Time
	tr.Events = append(tr.Events,
		trace.Event{Kind: trace.KindReturn, Thread: 1, Time: last + 1},
		trace.Event{Kind: trace.KindReturn, Thread: 1, Time: last + 2})
	enc := encodeTrace(t, tr)

	ckpt := filepath.Join(t.TempDir(), "ckpt")
	opts := StreamOptions{CheckpointPath: ckpt, FinalCheckpoint: true, CheckpointEvery: 1 << 20}
	if _, err := ProfileStream(context.Background(), bytes.NewReader(enc), core.DefaultConfig(), opts); err == nil {
		t.Fatal("malformed trace accepted")
	}
	if _, err := os.Stat(ckpt); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("checkpoint written for a mid-batch profiler failure (stat: %v)", err)
	}
}

// panicAfterReader panics inside Read once n bytes have been delivered —
// the worst-case misbehaving source for a long-running daemon.
type panicAfterReader struct {
	r io.Reader
	n int
}

func (p *panicAfterReader) Read(b []byte) (int, error) {
	if p.n <= 0 {
		panic("injected source panic")
	}
	if len(b) > p.n {
		b = b[:p.n]
	}
	n, err := p.r.Read(b)
	p.n -= n
	return n, err
}

// TestDecoderPanicIsContained: a panic inside the decoder goroutine must
// surface as an ordinary stream error, not crash the process.
func TestDecoderPanicIsContained(t *testing.T) {
	tr := trace.Random(trace.RandomConfig{Seed: 73, Ops: 2000})
	enc := encodeTrace(t, tr)

	src := &panicAfterReader{r: bytes.NewReader(enc), n: len(enc) / 2}
	_, err := ProfileStream(context.Background(), src, core.DefaultConfig(), StreamOptions{BatchSize: 64})
	if err == nil || !strings.Contains(err.Error(), "decoder panic") {
		t.Fatalf("panic not converted to error: %v", err)
	}
}
