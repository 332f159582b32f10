package profio

import (
	"bytes"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"aprof/internal/core"
	"aprof/internal/trace"
)

// TestHelperCheckpointWriteLoop is not a test: it is the child process of
// TestKilledCheckpointWriteIsResumable, re-executed from the test binary.
// It profiles a trace and rewrites one checkpoint file after every few
// events, so successive documents differ in size, until it is killed.
func TestHelperCheckpointWriteLoop(t *testing.T) {
	dir := os.Getenv("APROF_CKPT_WRITE_DIR")
	if dir == "" {
		t.Skip("helper process for TestKilledCheckpointWriteIsResumable")
	}
	path := filepath.Join(dir, "session.apck")
	tr := trace.Random(trace.RandomConfig{Seed: 7, Ops: 4000, Threads: 3})
	var buf bytes.Buffer
	for {
		p := core.NewProfiler(tr.Symbols, core.DefaultConfig())
		for i := range tr.Events {
			if err := p.HandleEvent(&tr.Events[i]); err != nil {
				t.Fatal(err)
			}
			if i%16 != 15 {
				continue
			}
			state := core.StreamState{EventsDelivered: uint64(i + 1)}
			if err := writeCheckpointFile(p, path, state, &buf); err != nil {
				t.Fatalf("writeCheckpointFile: %v", err)
			}
		}
	}
}

// TestKilledCheckpointWriteIsResumable: a process SIGKILLed at a random
// instant while rewriting a checkpoint must leave either no file or a
// complete one under the real name — one ResumeProfiler accepts, never
// ErrCheckpointCorrupt. Each round waits for the first checkpoint to land,
// so every kill hits a process that is mid-way through its write loop.
func TestKilledCheckpointWriteIsResumable(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills helper processes")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "session.apck")
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for round := 0; round < 12; round++ {
		os.Remove(path)
		cmd := exec.Command(os.Args[0], "-test.run", "^TestHelperCheckpointWriteLoop$")
		cmd.Env = append(os.Environ(), "APROF_CKPT_WRITE_DIR="+dir)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			if _, err := os.Stat(path); err == nil || time.Now().After(deadline) {
				break
			}
			time.Sleep(time.Millisecond)
		}
		time.Sleep(time.Duration(rng.Intn(20)) * time.Millisecond)
		cmd.Process.Kill()
		cmd.Wait()

		f, err := os.Open(path)
		if err != nil {
			t.Fatalf("round %d: no checkpoint after the helper's first write: %v", round, err)
		}
		_, state, err := core.ResumeProfiler(f, core.DefaultConfig())
		f.Close()
		if err != nil {
			t.Fatalf("round %d: checkpoint left by a killed writer does not resume: %v", round, err)
		}
		if state.EventsDelivered == 0 {
			t.Fatalf("round %d: resumed checkpoint has no delivered events", round)
		}
	}
}
