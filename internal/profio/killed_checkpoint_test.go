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
// It profiles a trace and appends a checkpoint to one log after every few
// events, so successive documents differ in size and the log is appended
// to and replaced in turn, until it is killed.
func TestHelperCheckpointWriteLoop(t *testing.T) {
	dir := os.Getenv("APROF_CKPT_WRITE_DIR")
	if dir == "" {
		t.Skip("helper process for TestKilledCheckpointWriteIsResumable")
	}
	log := NewCheckpointLog(filepath.Join(dir, "session.apck"))
	tr := trace.Random(trace.RandomConfig{Seed: 7, Ops: 4000, Threads: 3})
	for {
		p := core.NewProfiler(tr.Symbols, core.DefaultConfig())
		for i := range tr.Events {
			if err := p.HandleEvent(&tr.Events[i]); err != nil {
				t.Fatal(err)
			}
			if i%16 != 15 {
				continue
			}
			doc, err := p.Checkpoint(core.StreamState{EventsDelivered: uint64(i + 1)})
			if err != nil {
				t.Fatal(err)
			}
			if err := log.Append(uint64(i+1), doc); err != nil {
				t.Fatalf("appending checkpoint: %v", err)
			}
		}
	}
}

// TestKilledCheckpointWriteIsResumable: a process SIGKILLed at a random
// instant while appending to or replacing its checkpoint log must leave a
// log whose last intact record ResumeProfiler accepts — never one without
// an intact record. Each round waits for the first checkpoint to land, so
// every kill hits a process that is mid-way through its write loop.
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

		seq, doc, err := ReadCheckpointLog(path)
		if err != nil {
			t.Fatalf("round %d: no intact checkpoint after the helper's first write: %v", round, err)
		}
		_, state, err := core.ResumeProfiler(bytes.NewReader(doc), core.DefaultConfig())
		if err != nil {
			t.Fatalf("round %d: checkpoint left by a killed writer does not resume: %v", round, err)
		}
		if state.EventsDelivered == 0 || state.EventsDelivered != seq {
			t.Fatalf("round %d: record seq %d holds a checkpoint at %d delivered events", round, seq, state.EventsDelivered)
		}
	}
}
