package profio

import (
	"bytes"
	"reflect"
	"testing"

	"aprof/internal/core"
	"aprof/internal/trace"
)

// FuzzReadProfiles fuzzes the profile-file decoder differentially: for any
// bytes, Read and the reflective readJSON must both reject them with the
// same error, or both accept them with equal profiles — the one-pass
// decoder may only give up on input, never decode it differently. Any
// document that decodes must re-encode to exactly the reflective reference
// encoder's bytes, that encoding must take the one-pass path unless a
// routine name needs escaping, and decoding it must give back the same
// profiles.
func FuzzReadProfiles(f *testing.F) {
	for _, seed := range []int64{1, 2} {
		tr := trace.Random(trace.RandomConfig{Seed: seed, Ops: 150})
		ps, err := core.Run(tr, core.DefaultConfig())
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, ps); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"format":1,"generator":"aprof-drms","events":0,"renumberings":0,"profiles":[]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ps, err := Read(bytes.NewReader(data))
		ref, refErr := readJSON(data)
		if err != nil || refErr != nil {
			if err == nil || refErr == nil || err.Error() != refErr.Error() {
				t.Fatalf("Read error %v, reflective decoder error %v", err, refErr)
			}
			return
		}
		checkSameProfiles(t, ps, ref)
		doc, err := Marshal(ps)
		if err != nil {
			t.Fatalf("decoded profiles failed to re-encode: %v", err)
		}
		var want bytes.Buffer
		if err := referenceWrite(&want, ps); err != nil {
			t.Fatalf("reference encoder: %v", err)
		}
		if !bytes.Equal(doc, want.Bytes()) {
			t.Fatalf("Marshal differs from encoding/json at byte %d:\n got: %q\nwant: %q",
				mismatchAt(doc, want.Bytes()), excerpt(doc, want.Bytes()), excerpt(want.Bytes(), doc))
		}
		checkOnePass(t, "re-encoded document", ps, doc)
		back, err := Read(bytes.NewReader(doc))
		if err != nil {
			t.Fatalf("re-encoded document does not decode: %v", err)
		}
		checkSameProfiles(t, back, ps)
	})
}

// checkSameProfiles compares two profile sets field for field, keying
// profiles by (routine name, thread): interned ids follow document order,
// so they need not agree.
func checkSameProfiles(t *testing.T, got, want *core.Profiles) {
	t.Helper()
	if got.Events != want.Events || got.Renumberings != want.Renumberings {
		t.Errorf("events/renumberings = %d/%d, want %d/%d", got.Events, got.Renumberings, want.Events, want.Renumberings)
	}
	if got.Drops != want.Drops {
		t.Errorf("drops = %+v, want %+v", got.Drops, want.Drops)
	}
	if !reflect.DeepEqual(got.Corruption, want.Corruption) {
		t.Errorf("corruption = %+v, want %+v", got.Corruption, want.Corruption)
	}
	if len(got.ByKey) != len(want.ByKey) {
		t.Fatalf("%d profiles, want %d", len(got.ByKey), len(want.ByKey))
	}
	for k, w := range want.ByKey {
		name := want.Symbols.Name(k.Routine)
		g := got.Get(name, k.Thread)
		if g == nil {
			t.Fatalf("profile %q thread %d missing", name, k.Thread)
		}
		if g.Thread != w.Thread || g.Calls != w.Calls || g.SumRMS != w.SumRMS || g.SumDRMS != w.SumDRMS ||
			g.FirstReads != w.FirstReads || g.InducedThread != w.InducedThread ||
			g.InducedExternal != w.InducedExternal || g.TotalCost != w.TotalCost {
			t.Errorf("profile %q thread %d: scalar fields %+v, want %+v", name, k.Thread, g, w)
		}
		if !reflect.DeepEqual(g.DRMSPoints, w.DRMSPoints) || !reflect.DeepEqual(g.RMSPoints, w.RMSPoints) {
			t.Errorf("profile %q thread %d: points differ", name, k.Thread)
		}
	}
}
