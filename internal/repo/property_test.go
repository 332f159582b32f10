package repo_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"aprof/internal/repo"
	"aprof/internal/repo/backend"
)

// TestPropertyDifferential drives random sequences of store operations —
// SaveProfile, dropping a session (snapshot a subset + forget superseded
// roots), GC, and full close/reopen cycles — against a trivial model (a
// map of session ID to latest profile bytes). After every operation the store
// must agree with the model exactly: same session set, byte-identical
// contents, and a clean Check after every GC.
func TestPropertyDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			be, err := backend.OpenLocal(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			r, err := repo.OpenOrInit(be, Options(t))
			if err != nil {
				t.Fatal(err)
			}
			model := make(map[string][]byte)
			base := syntheticDoc(seed, 24<<10)

			agree := func(opIdx int, op string) {
				t.Helper()
				var want []string
				for sid := range model {
					want = append(want, sid)
				}
				sort.Strings(want)
				got := r.SessionIDs()
				sort.Strings(got)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("op %d (%s): sessions diverged: store %v, model %v", opIdx, op, got, want)
				}
				for sid, doc := range model {
					stored, err := r.GetSession(sid)
					if err != nil {
						t.Fatalf("op %d (%s): session %s unreadable: %v", opIdx, op, sid, err)
					}
					if !bytes.Equal(stored, doc) {
						t.Fatalf("op %d (%s): session %s diverged from model", opIdx, op, sid)
					}
				}
				if _, err := r.GetSession("never-saved"); err == nil {
					t.Fatalf("op %d (%s): phantom session served", opIdx, op)
				}
			}

			const ops = 120
			for i := 0; i < ops; i++ {
				var op string
				switch p := rng.Intn(100); {
				case p < 55: // save: new or updated session
					sid := fmt.Sprintf("sess-%d", rng.Intn(8))
					var doc []byte
					if rng.Intn(4) == 0 {
						doc = syntheticDoc(rng.Int63(), 4<<10+rng.Intn(32<<10))
					} else {
						doc = mutateDoc(base, rng.Int63())
					}
					if err := r.SaveProfile(sid, doc); err != nil {
						t.Fatalf("op %d: save %s: %v", i, sid, err)
					}
					model[sid] = doc
					op = "save " + sid
				case p < 70: // drop one random session
					if len(model) == 0 {
						continue
					}
					var sids []string
					for sid := range model {
						sids = append(sids, sid)
					}
					sort.Strings(sids)
					victim := sids[rng.Intn(len(sids))]
					next := r.Sessions()
					delete(next, victim)
					newName, err := r.Snapshot(next)
					if err != nil {
						t.Fatalf("op %d: drop snapshot: %v", i, err)
					}
					for _, s := range r.Snapshots() {
						if s.Name != newName {
							if err := r.Forget(s.Name); err != nil {
								t.Fatalf("op %d: forget %s: %v", i, s.Name, err)
							}
						}
					}
					delete(model, victim)
					op = "drop " + victim
				case p < 85: // gc
					if _, err := r.GC(); err != nil {
						t.Fatalf("op %d: gc: %v", i, err)
					}
					if rep := r.Check(); !rep.OK() {
						t.Fatalf("op %d: check after gc: %v", i, rep.Errors)
					}
					op = "gc"
				default: // close + reopen: everything must be durable
					if err := r.Close(); err != nil {
						t.Fatalf("op %d: close: %v", i, err)
					}
					r, err = repo.Open(be, Options(t))
					if err != nil {
						t.Fatalf("op %d: reopen: %v", i, err)
					}
					op = "reopen"
				}
				agree(i, op)
			}

			if rep := r.Check(); !rep.OK() {
				t.Fatalf("final check: %v", rep.Errors)
			}
		})
	}
}

// TestIdenticalProfilesStoredOnce: a profile is one blob addressed by
// the SHA-256 of the whole document, so the same document saved under N
// sessions is stored once and served N times.
func TestIdenticalProfilesStoredOnce(t *testing.T) {
	be, err := backend.OpenLocal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r, err := repo.OpenOrInit(be, Options(t))
	if err != nil {
		t.Fatal(err)
	}
	const (
		n    = 16
		size = 256 << 10
	)
	doc := syntheticDoc(7, size)
	for i := 0; i < n; i++ {
		if err := r.SaveProfile(fmt.Sprintf("run-%02d", i), doc); err != nil {
			t.Fatal(err)
		}
	}
	s, err := r.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s.Sessions != n || s.Blobs != 1 || s.Profiles != 1 {
		t.Fatalf("sessions %d, blobs %d, profiles %d; want %d, 1, 1", s.Sessions, s.Blobs, s.Profiles, n)
	}
	if s.LiveBytes != int64(len(doc)) || s.LogicalBytes != int64(n*len(doc)) {
		t.Fatalf("live bytes %d, logical bytes %d; want %d, %d", s.LiveBytes, s.LogicalBytes, len(doc), n*len(doc))
	}
	if f := s.DedupFactor(); f != n {
		t.Fatalf("dedup factor = %.2f, want %d", f, n)
	}
	for i := 0; i < n; i++ {
		got, err := r.GetSession(fmt.Sprintf("run-%02d", i))
		if err != nil || !bytes.Equal(got, doc) {
			t.Fatalf("run-%02d: %d bytes, %v", i, len(got), err)
		}
	}
}
