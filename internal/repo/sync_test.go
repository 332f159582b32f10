package repo_test

// Store-to-store anti-entropy: Sync pulls whatever a peer's repository
// holds that this one lacks, merges session views deterministically, and
// is idempotent once converged. These tests run backend-to-backend (the
// network transport has its own suite under internal/replica).

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"aprof/internal/repo"
	"aprof/internal/repo/backend"
)

func openPair(t *testing.T) (*repo.Repository, backend.Backend, *repo.Repository, backend.Backend) {
	t.Helper()
	beA, err := backend.OpenLocal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ra, err := repo.OpenOrInit(beA, repo.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	beB, err := backend.OpenLocal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rb, err := repo.OpenOrInit(beB, repo.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ra.Close(); rb.Close() })
	return ra, beA, rb, beB
}

func TestSyncPullsEverything(t *testing.T) {
	ra, beA, rb, _ := openPair(t)

	docs := map[string][]byte{}
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("sess-%d", i)
		docs[id] = syntheticDoc(int64(100+i), 4096*(i+1))
		if err := ra.SaveProfile(id, docs[id]); err != nil {
			t.Fatal(err)
		}
	}
	if err := ra.Flush(); err != nil {
		t.Fatal(err)
	}

	stats, err := rb.Sync(beA)
	if err != nil {
		t.Fatalf("sync: %v", err)
	}
	if stats.SessionsAdopted != 4 {
		t.Fatalf("adopted %d sessions, want 4 (%s)", stats.SessionsAdopted, stats)
	}
	if stats.PacksPulled == 0 || !stats.RootWritten {
		t.Fatalf("sync pulled nothing or wrote no root: %s", stats)
	}
	for id, want := range docs {
		got, err := rb.GetSession(id)
		if err != nil {
			t.Fatalf("%s after sync: %v", id, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: synced bytes differ", id)
		}
	}
	if rep := rb.Check(); !rep.OK() {
		t.Fatalf("synced store fails check: %v", rep.Errors)
	}
}

func TestSyncIdempotentOnceConverged(t *testing.T) {
	ra, beA, rb, _ := openPair(t)
	if err := ra.SaveProfile("only", syntheticDoc(7, 8192)); err != nil {
		t.Fatal(err)
	}
	if err := ra.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := rb.Sync(beA); err != nil {
		t.Fatal(err)
	}

	again, err := rb.Sync(beA)
	if err != nil {
		t.Fatal(err)
	}
	if again.PacksPulled != 0 || again.RootWritten || again.SessionsAdopted != 0 {
		t.Fatalf("converged sync did work: %s", again)
	}
}

// Divergent heads for the same session must converge to the same winner
// no matter which side syncs from which, and the losing head must survive
// as a retained version on both sides, not vanish. The winner depends on
// the heads' hash order, so both orders run.
func TestSyncDivergentHeadsConverge(t *testing.T) {
	for _, seeds := range [][2]int64{{1, 2}, {2, 1}} {
		t.Run(fmt.Sprintf("a=%d,b=%d", seeds[0], seeds[1]), func(t *testing.T) {
			testSyncDivergentHeadsConverge(t, syntheticDoc(seeds[0], 6000), syntheticDoc(seeds[1], 6000))
		})
	}
}

func testSyncDivergentHeadsConverge(t *testing.T, docA, docB []byte) {
	ra, beA, rb, beB := openPair(t)

	if err := ra.SaveProfile("shared", docA); err != nil {
		t.Fatal(err)
	}
	if err := ra.SaveProfile("a-only", syntheticDoc(3, 3000)); err != nil {
		t.Fatal(err)
	}
	if err := rb.SaveProfile("shared", docB); err != nil {
		t.Fatal(err)
	}
	if err := rb.SaveProfile("b-only", syntheticDoc(4, 3000)); err != nil {
		t.Fatal(err)
	}
	if err := ra.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := rb.Flush(); err != nil {
		t.Fatal(err)
	}

	if _, err := ra.Sync(beB); err != nil {
		t.Fatalf("A<-B: %v", err)
	}
	if _, err := rb.Sync(beA); err != nil {
		t.Fatalf("B<-A: %v", err)
	}

	gotA, err := ra.GetSession("shared")
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := rb.GetSession("shared")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotA, gotB) {
		t.Fatal("divergent heads did not converge to the same winner")
	}
	if !bytes.Equal(gotA, docA) && !bytes.Equal(gotA, docB) {
		t.Fatal("winner is neither original head")
	}
	// Both sides now hold both unique sessions.
	for _, r := range []*repo.Repository{ra, rb} {
		for _, id := range []string{"a-only", "b-only"} {
			if _, err := r.GetSession(id); err != nil {
				t.Fatalf("%s missing after bidirectional sync: %v", id, err)
			}
		}
		// The losing head is retained as a version on both sides: the
		// superseded side moves it into history, and the winning side
		// records the remote head it beat.
		if vs := r.Versions("shared"); len(vs) != 2 {
			t.Fatalf("losing head was not retained: %d versions", len(vs))
		}
		if rep := r.Check(); !rep.OK() {
			t.Fatalf("store fails check after convergence: %v", rep.Errors)
		}
	}

	if va, vb := ra.Versions("shared"), rb.Versions("shared"); fmt.Sprint(va) != fmt.Sprint(vb) {
		t.Fatalf("version lists diverge: A=%v B=%v", va, vb)
	}

	// Fully converged now: one more pull each way is a no-op.
	sa, err := ra.Sync(beB)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := rb.Sync(beA)
	if err != nil {
		t.Fatal(err)
	}
	if sa.RootWritten || sb.RootWritten {
		t.Fatalf("converged pair still writing roots: A=%s B=%s", sa, sb)
	}
}

// When the local head wins, the remote's head and history join local
// history, but never the local head itself: here the remote's history
// holds exactly the document that is the local head.
func TestSyncWinningHeadStaysOutOfHistory(t *testing.T) {
	ra, beA, rb, _ := openPair(t)
	x, y := syntheticDoc(30, 4000), syntheticDoc(31, 4000)
	for _, doc := range [][]byte{x, y} { // A: head y, history [x], root seq 2
		if err := ra.SaveProfile("s", doc); err != nil {
			t.Fatal(err)
		}
	}
	// B: head x under root seq 3, so B's head wins the merge.
	for _, save := range []struct {
		sid string
		doc []byte
	}{{"s", x}, {"o1", syntheticDoc(32, 1000)}, {"o2", syntheticDoc(33, 1000)}} {
		if err := rb.SaveProfile(save.sid, save.doc); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rb.Sync(beA); err != nil {
		t.Fatal(err)
	}
	vs := rb.Versions("s")
	if len(vs) != 2 {
		t.Fatalf("versions after sync = %v, want head x and history y", vs)
	}
	head, err := rb.GetVersion("s", vs[0].Manifest)
	if err != nil || !bytes.Equal(head, x) {
		t.Fatalf("head after sync: %d bytes, %v; want x", len(head), err)
	}
	prev, err := rb.GetVersion("s", vs[1].Manifest)
	if err != nil || !bytes.Equal(prev, y) {
		t.Fatalf("history after sync: %d bytes, %v; want y", len(prev), err)
	}
}

// A remote session whose blobs cannot all be pulled (the remote lost or
// GC'd a pack mid-round) is skipped and retried later — never adopted
// half-servable.
func TestSyncSkipsUnresolvableSessions(t *testing.T) {
	ra, beA, rb, _ := openPair(t)

	if err := ra.SaveProfile("intact", syntheticDoc(10, 5000)); err != nil {
		t.Fatal(err)
	}
	if err := ra.Flush(); err != nil {
		t.Fatal(err)
	}
	before, err := beA.List(backend.PackType)
	if err != nil {
		t.Fatal(err)
	}
	if err := ra.SaveProfile("doomed", syntheticDoc(11, 5000)); err != nil {
		t.Fatal(err)
	}
	if err := ra.Flush(); err != nil {
		t.Fatal(err)
	}

	// Destroy exactly the packs added by the second save — "doomed" now
	// references blobs nobody can serve.
	after, err := beA.List(backend.PackType)
	if err != nil {
		t.Fatal(err)
	}
	old := map[string]bool{}
	for _, name := range before {
		old[name] = true
	}
	removed := 0
	for _, name := range after {
		if !old[name] {
			if err := beA.Remove(backend.Handle{Type: backend.PackType, Name: name}); err != nil {
				t.Fatal(err)
			}
			removed++
		}
	}
	if removed == 0 {
		t.Fatal("second save added no pack; test setup broken")
	}

	stats, err := rb.Sync(beA)
	if err != nil {
		t.Fatalf("sync: %v", err)
	}
	if stats.SessionsSkipped == 0 {
		t.Fatalf("unresolvable session was not skipped: %s", stats)
	}
	if _, err := rb.GetSession("intact"); err != nil {
		t.Fatalf("resolvable session not adopted: %v", err)
	}
	if _, err := rb.GetSession("doomed"); err == nil {
		t.Fatal("unresolvable session was adopted")
	}
	if rep := rb.Check(); !rep.OK() {
		t.Fatalf("store fails check after partial sync: %v", rep.Errors)
	}
}

// Remote retained history rides along: after sync, old versions of a
// remote session are servable locally.
func TestSyncMergesHistory(t *testing.T) {
	t0 := time.Unix(1_700_000_000, 0)
	clock := t0
	beA, err := backend.OpenLocal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ra, err := repo.OpenOrInit(beA, repo.Options{Clock: func() time.Time { return clock }})
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()

	v1 := syntheticDoc(20, 4000)
	v2 := mutateDoc(v1, 21)
	if err := ra.SaveProfile("evolving", v1); err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(time.Hour)
	if err := ra.SaveProfile("evolving", v2); err != nil {
		t.Fatal(err)
	}
	if err := ra.Flush(); err != nil {
		t.Fatal(err)
	}

	beB, err := backend.OpenLocal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rb, err := repo.OpenOrInit(beB, repo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	if _, err := rb.Sync(beA); err != nil {
		t.Fatal(err)
	}

	vs := rb.Versions("evolving")
	if len(vs) != 2 {
		t.Fatalf("synced store has %d versions, want 2", len(vs))
	}
	head, err := rb.GetVersion("evolving", vs[0].Manifest)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := rb.GetVersion("evolving", vs[1].Manifest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(head, v2) || !bytes.Equal(prev, v1) {
		t.Fatal("synced versions do not match the remote's history")
	}
}
