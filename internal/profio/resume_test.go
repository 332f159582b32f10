package profio

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"aprof/internal/core"
	"aprof/internal/trace"
)

// errKill is the injected crash of the resume tests.
var errKill = errors.New("injected crash")

// TestKillAndResumeDeterminism is the acceptance test of the checkpoint
// mechanism: for several batch sizes, interrupting ProfileStream after
// EVERY possible batch and resuming from the checkpoint must produce
// WriteProfiles output byte-identical to the uninterrupted run.
func TestKillAndResumeDeterminism(t *testing.T) {
	tr := trace.Random(trace.RandomConfig{Seed: 20, Ops: 1500})
	enc := encodeTrace(t, tr)
	cfg := core.DefaultConfig()

	for _, batchSize := range []int{32, 257, 1024} {
		opts := StreamOptions{BatchSize: batchSize, CheckpointEvery: 1}
		want, err := ProfileStream(context.Background(), bytes.NewReader(enc), cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		wantBytes := writeBytes(t, want)

		// Count the batches of an uninterrupted run.
		batches := (tr.Len() + batchSize - 1) / batchSize
		if batches < 2 {
			t.Fatalf("batch size %d: trace too small for a meaningful sweep", batchSize)
		}
		ckpt := filepath.Join(t.TempDir(), "ckpt")
		for kill := 1; kill <= batches; kill++ {
			kopts := opts
			kopts.CheckpointPath = ckpt
			kopts.OnBatch = func(batch int, delivered uint64) error {
				if batch == kill {
					return errKill
				}
				return nil
			}
			_, err := ProfileStream(context.Background(), bytes.NewReader(enc), cfg, kopts)
			if kill < batches && !errors.Is(err, errKill) {
				t.Fatalf("batch %d/%d: kill not delivered: %v", kill, batches, err)
			}
			if kill == batches && err != nil && !errors.Is(err, errKill) {
				t.Fatalf("batch %d/%d: %v", kill, batches, err)
			}
			if err == nil {
				// The run completed before the kill batch (final short
				// batch); nothing to resume.
				continue
			}
			ropts := opts
			ropts.CheckpointPath = ckpt
			got, err := ResumeStream(context.Background(), bytes.NewReader(enc), ckpt, cfg, ropts)
			if err != nil {
				t.Fatalf("resume after batch %d (size %d): %v", kill, batchSize, err)
			}
			if !bytes.Equal(writeBytes(t, got), wantBytes) {
				t.Fatalf("batch size %d, killed after batch %d: resumed output differs", batchSize, kill)
			}
		}
	}
}

// TestDoubleKillResume crashes, resumes, crashes again, and resumes again:
// checkpoints taken by a resumed run must themselves be resumable.
func TestDoubleKillResume(t *testing.T) {
	tr := trace.Random(trace.RandomConfig{Seed: 21, Ops: 2000})
	enc := encodeTrace(t, tr)
	cfg := core.DefaultConfig()
	opts := StreamOptions{BatchSize: 64, CheckpointEvery: 1}

	want, err := ProfileStream(context.Background(), bytes.NewReader(enc), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "ckpt")

	kill := func(run func(StreamOptions) (*core.Profiles, error), at int) {
		t.Helper()
		kopts := opts
		kopts.CheckpointPath = ckpt
		kopts.OnBatch = func(batch int, delivered uint64) error {
			if batch == at {
				return errKill
			}
			return nil
		}
		if _, err := run(kopts); !errors.Is(err, errKill) {
			t.Fatalf("kill not delivered: %v", err)
		}
	}
	kill(func(o StreamOptions) (*core.Profiles, error) {
		return ProfileStream(context.Background(), bytes.NewReader(enc), cfg, o)
	}, 7)
	kill(func(o StreamOptions) (*core.Profiles, error) {
		return ResumeStream(context.Background(), bytes.NewReader(enc), ckpt, cfg, o)
	}, 5)
	ropts := opts
	ropts.CheckpointPath = ckpt
	got, err := ResumeStream(context.Background(), bytes.NewReader(enc), ckpt, cfg, ropts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(writeBytes(t, got), writeBytes(t, want)) {
		t.Error("twice-resumed output differs from uninterrupted run")
	}
}

// TestResumeRejectsWrongTrace checks the symbol-table guard.
func TestResumeRejectsWrongTrace(t *testing.T) {
	tr := trace.Random(trace.RandomConfig{Seed: 22, Ops: 500})
	enc := encodeTrace(t, tr)
	cfg := core.DefaultConfig()
	ckpt := filepath.Join(t.TempDir(), "ckpt")
	opts := StreamOptions{BatchSize: 32, CheckpointEvery: 1, CheckpointPath: ckpt,
		OnBatch: func(batch int, _ uint64) error {
			if batch == 3 {
				return errKill
			}
			return nil
		}}
	if _, err := ProfileStream(context.Background(), bytes.NewReader(enc), cfg, opts); !errors.Is(err, errKill) {
		t.Fatal(err)
	}
	other := trace.Random(trace.RandomConfig{Seed: 23, Ops: 500, Routines: 9})
	otherEnc := encodeTrace(t, other)
	if _, err := ResumeStream(context.Background(), bytes.NewReader(otherEnc), ckpt, cfg, StreamOptions{}); err == nil {
		t.Error("resume against a different trace succeeded")
	}
	// A log torn inside its first record holds no checkpoint to resume.
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	first := logRecords(t, data)[0]
	if err := os.WriteFile(ckpt, data[:(first.start+first.end)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeStream(context.Background(), bytes.NewReader(enc), ckpt, cfg, StreamOptions{}); err == nil {
		t.Error("resume from a torn checkpoint succeeded")
	}
}
