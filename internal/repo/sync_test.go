package repo_test

// Store-to-store anti-entropy: Sync pulls whatever a peer's repository
// holds that this one lacks, merges session views deterministically, and
// is idempotent once converged. These tests run backend-to-backend (the
// network transport has its own suite under internal/replica).

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

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
// no matter which side syncs from which; the losing head is dropped on
// both sides, so one GC frees its blob. The winner depends on the heads'
// hash order, so both orders run.
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
		if rep := r.Check(); !rep.OK() {
			t.Fatalf("store fails check after convergence: %v", rep.Errors)
		}
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

	// The losing head is in no root on either side: one GC frees its blob
	// and nothing else.
	loser := docA
	if bytes.Equal(gotA, docA) {
		loser = docB
	}
	for _, r := range []*repo.Repository{ra, rb} {
		stats, err := r.GC()
		if err != nil {
			t.Fatal(err)
		}
		if stats.BlobsFreed != 1 {
			t.Fatalf("GC freed %d blobs, want only the losing head (%s)", stats.BlobsFreed, stats)
		}
		if _, err := r.Get(repo.IDOf(loser)); !errors.Is(err, repo.ErrProfileNotFound) {
			t.Fatalf("losing head still stored after GC: %v", err)
		}
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
