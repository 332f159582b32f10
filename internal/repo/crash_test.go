package repo_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"aprof/internal/faultio"
	"aprof/internal/repo"
	"aprof/internal/repo/backend"
)

// The crash-consistency sweep, in the style of the APCK kill-at-every-
// batch tests: run a fixed store workload — saves, dropping a session, a
// GC, more saves — and kill the backend at every mutating operation
// index, in every crash mode (before the op, after the op, and a torn
// Save that becomes visible half-written). After each kill the store is
// reopened on the intact backend and must satisfy:
//
//  1. `check` passes: no snapshot references a blob that cannot be
//     served from a verified pack (no referenced blob is ever lost);
//  2. every session whose SaveProfile was ACKNOWLEDGED before the kill
//     is readable, byte-identical;
//  3. no torn pack is ever served (reads verify, check warns at most);
//  4. a subsequent GC runs clean and changes none of the above.

// crashScenario drives the workload against r until the backend dies.
// It returns the sessions acknowledged (SaveProfile returned nil) with
// their exact contents.
func crashScenario(t *testing.T, r *repo.Repository) (acked map[string][]byte, crashed bool) {
	t.Helper()
	acked = make(map[string][]byte)
	step := func(err error) bool {
		if err == nil {
			return false
		}
		if errors.Is(err, faultio.ErrBackendCrashed) {
			return true
		}
		t.Fatalf("non-crash error from store op: %v", err)
		return true
	}

	base := syntheticDoc(100, 20<<10)
	for i := 0; i < 4; i++ {
		sid := fmt.Sprintf("s%d", i)
		data := mutateDoc(base, int64(i))
		if step(r.SaveProfile(sid, data)) {
			return acked, true
		}
		acked[sid] = data
	}
	// Drop s1: snapshot the head set without it, forget the roots holding it.
	sessions := r.Sessions()
	delete(sessions, "s1")
	if _, err := r.Snapshot(sessions); step(err) {
		return acked, true
	}
	delete(acked, "s1")
	for _, s := range r.Snapshots() {
		if _, ok := s.Sessions["s1"]; ok {
			if step(r.Forget(s.Name)) {
				return acked, true
			}
		}
	}
	if _, err := r.GC(); step(err) {
		return acked, true
	}
	for i := 4; i < 6; i++ {
		sid := fmt.Sprintf("s%d", i)
		data := mutateDoc(base, int64(i))
		if step(r.SaveProfile(sid, data)) {
			return acked, true
		}
		acked[sid] = data
	}
	if step(r.Close()) {
		return acked, true
	}
	return acked, false
}

// verifySurvival reopens the store after a kill and asserts the crash
// invariants.
func verifySurvival(t *testing.T, be backend.Backend, acked map[string][]byte, label string) {
	t.Helper()
	r, err := repo.Open(be, Options(t))
	if err != nil {
		t.Fatalf("%s: reopen failed: %v", label, err)
	}
	rep := r.Check()
	if !rep.OK() {
		t.Fatalf("%s: check failed after kill: %v", label, rep.Errors)
	}
	for sid, want := range acked {
		got, err := r.GetSession(sid)
		if err != nil {
			t.Fatalf("%s: acknowledged session %s lost: %v", label, sid, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: acknowledged session %s corrupted", label, sid)
		}
	}
	// GC over the crashed remains must stay safe and leave a clean store.
	if _, err := r.GC(); err != nil {
		t.Fatalf("%s: gc after kill: %v", label, err)
	}
	if rep := r.Check(); !rep.OK() {
		t.Fatalf("%s: check failed after post-kill gc: %v", label, rep.Errors)
	}
	for sid, want := range acked {
		got, err := r.GetSession(sid)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: acknowledged session %s lost by post-kill gc: %v", label, sid, err)
		}
	}
}

// Options builds quiet repository options for subtests.
func Options(t *testing.T) repo.Options {
	return repo.Options{Logf: t.Logf}
}

func TestCrashSweepKillAtEveryStep(t *testing.T) {
	// Learn the sweep range: run the scenario once with no kill.
	probe, err := backend.OpenLocal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Init(probe); err != nil {
		t.Fatal(err)
	}
	counter := faultio.NewCrashBackend(probe, 0, faultio.CrashBefore)
	rp, err := repo.Open(counter, Options(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, crashed := crashScenario(t, rp); crashed {
		t.Fatal("probe run crashed with kills disabled")
	}
	totalOps := counter.Ops()
	if totalOps < 10 {
		t.Fatalf("scenario too small to sweep: %d mutating ops", totalOps)
	}

	for _, mode := range faultio.CrashModes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			for killAt := 1; killAt <= totalOps; killAt++ {
				inner, err := backend.OpenLocal(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if err := repo.Init(inner); err != nil {
					t.Fatal(err)
				}
				cb := faultio.NewCrashBackend(inner, killAt, mode)
				r, err := repo.Open(cb, Options(t))
				if err != nil {
					t.Fatalf("killAt=%d: open: %v", killAt, err)
				}
				acked, crashed := crashScenario(t, r)
				if !crashed {
					t.Fatalf("killAt=%d: scenario finished without crashing", killAt)
				}
				label := fmt.Sprintf("mode=%s killAt=%d", mode, killAt)
				// The process died; reopen against the intact storage.
				verifySurvival(t, inner, acked, label)
			}
		})
	}
}

// TestCrashDuringGCOnly concentrates the sweep on the GC pass, whose
// repack + delete sequence is the most delicate ordering in the store:
// the workload completes durably first, so EVERY session must survive a
// kill anywhere inside GC.
func TestCrashDuringGCOnly(t *testing.T) {
	build := func(t *testing.T) (*backend.Local, map[string][]byte, int) {
		t.Helper()
		inner, err := backend.OpenLocal(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := repo.Init(inner); err != nil {
			t.Fatal(err)
		}
		r, err := repo.Open(inner, Options(t))
		if err != nil {
			t.Fatal(err)
		}
		acked := make(map[string][]byte)
		base := syntheticDoc(200, 20<<10)
		for i := 0; i < 5; i++ {
			sid := fmt.Sprintf("g%d", i)
			data := mutateDoc(base, int64(i))
			if err := r.SaveProfile(sid, data); err != nil {
				t.Fatal(err)
			}
			acked[sid] = data
		}
		// Make garbage: drop two sessions so GC has dead blobs and
		// partially-live packs to chew on.
		sessions := r.Sessions()
		delete(sessions, "g1")
		delete(sessions, "g3")
		if _, err := r.Snapshot(sessions); err != nil {
			t.Fatal(err)
		}
		for _, s := range r.Snapshots() {
			if len(s.Sessions) != len(sessions) {
				if err := r.Forget(s.Name); err != nil {
					t.Fatal(err)
				}
			}
		}
		delete(acked, "g1")
		delete(acked, "g3")
		// Count GC's mutating ops with a probe run on a byte-identical
		// clone; cheaper to just run GC on a counting wrapper below.
		return inner, acked, 0
	}

	// Probe: how many mutating ops does this GC issue?
	inner, _, _ := build(t)
	cb := faultio.NewCrashBackend(inner, 0, faultio.CrashBefore)
	r, err := repo.Open(cb, Options(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.GC(); err != nil {
		t.Fatal(err)
	}
	gcOps := cb.Ops()
	if gcOps < 3 {
		t.Fatalf("gc issued only %d mutating ops; nothing to sweep", gcOps)
	}

	for _, mode := range faultio.CrashModes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			for killAt := 1; killAt <= gcOps; killAt++ {
				inner, acked, _ := build(t)
				cb := faultio.NewCrashBackend(inner, killAt, mode)
				r, err := repo.Open(cb, Options(t))
				if err != nil {
					t.Fatalf("killAt=%d: open: %v", killAt, err)
				}
				if _, err := r.GC(); !errors.Is(err, faultio.ErrBackendCrashed) {
					t.Fatalf("killAt=%d: gc did not crash (err=%v)", killAt, err)
				}
				verifySurvival(t, inner, acked, fmt.Sprintf("gc mode=%s killAt=%d", mode, killAt))
			}
		})
	}
}
