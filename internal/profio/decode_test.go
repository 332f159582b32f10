package profio

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"aprof/internal/core"
	"aprof/internal/faultio"
	"aprof/internal/trace"
	"aprof/internal/vm"
	"aprof/internal/workloads"
)

// vmProfiles profiles the multithreaded MiniLang applications, the
// programs whose profiles offline-vm writes and reads back.
func vmProfiles(tb testing.TB) []*core.Profiles {
	tb.Helper()
	var out []*core.Profiles
	for _, p := range workloads.VMPrograms() {
		res, err := vm.RunSource(p.Source, vm.Options{})
		if err != nil {
			tb.Fatalf("%s: %v", p.Name, err)
		}
		ps, err := core.Run(res.Trace, core.DefaultConfig())
		if err != nil {
			tb.Fatalf("%s: %v", p.Name, err)
		}
		out = append(out, ps)
	}
	return out
}

// lenientProfiles profiles bit-flipped and truncated APT2 streams through
// the lenient pipeline under the count fault policy, so their documents
// carry drop and corruption counters.
func lenientProfiles(t *testing.T) []*core.Profiles {
	t.Helper()
	tr := trace.Random(trace.RandomConfig{Seed: 9, Ops: 1200, Threads: 3})
	enc := encodeV2Framed(t, tr, 64)
	var out []*core.Profiles
	for seed := int64(0); seed < 10; seed++ {
		fr := faultio.NewFaultReader(bytes.NewReader(enc),
			faultio.Config{Seed: seed, BitFlipRate: 0.0005, MaxBitFlips: 4})
		if ps, err := lenientRunReader(t, fr); err == nil {
			out = append(out, ps)
		}
	}
	for _, cut := range []int{3, 6, 9} {
		if ps, err := lenientRun(t, enc[:len(enc)*cut/10]); err == nil {
			out = append(out, ps)
		}
	}
	return out
}

// checkOnePass asserts that doc, which Marshal wrote for ps, takes the
// one-pass path exactly when every routine name of ps is copied into it as
// is, and that the one-pass path decodes it as readJSON does.
func checkOnePass(t *testing.T, name string, ps *core.Profiles, doc []byte) {
	t.Helper()
	plain := true
	for k := range ps.ByKey {
		n := ps.Symbols.Name(k.Routine)
		plain = plain && string(appendString(nil, n)) == `"`+n+`"`
	}
	got := readCanonical(doc)
	if (got != nil) != plain {
		t.Fatalf("%s: one-pass path taken = %v, want %v: it must take every document whose names need no escaping", name, got != nil, plain)
	}
	if got == nil {
		return
	}
	ref, err := readJSON(doc)
	if err != nil {
		t.Fatalf("%s: reflective decoder: %v", name, err)
	}
	checkSameProfiles(t, got, ref)
}

// TestMarshalledDocumentsReadInOnePass: every document Marshal writes whose
// routine names need no escaping is decoded by the one-pass path, not
// handed to encoding/json, so a silent fallback cannot hide behind equal
// results.
func TestMarshalledDocumentsReadInOnePass(t *testing.T) {
	corpus := map[string]*core.Profiles{}
	for seed := int64(1); seed <= 20; seed++ {
		tr := trace.Random(trace.RandomConfig{Seed: seed, Ops: 400})
		for i, cfg := range []core.Config{core.DefaultConfig(), {FaultPolicy: core.FaultCount, Limits: core.Limits{MaxDepth: 2}}} {
			ps, err := core.Run(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			corpus[fmt.Sprintf("random seed %d config %d", seed, i)] = ps
		}
	}
	for i, ps := range suiteProfiles(t, 1) {
		corpus["suite "+workloads.FullSuite()[i].Name] = ps
	}
	for i, ps := range vmProfiles(t) {
		corpus["vm "+workloads.VMPrograms()[i].Name] = ps
	}
	var drops, corruption bool
	for i, ps := range lenientProfiles(t) {
		corpus[fmt.Sprintf("lenient %d", i)] = ps
		drops = drops || !ps.Drops.IsZero()
		c := ps.Corruption
		corruption = corruption || c.FramesDropped != 0 || c.EventsDropped != 0 || c.BytesSkipped != 0 || c.Truncated
	}
	if !drops || !corruption {
		t.Fatalf("lenient corpus carries drops %v, corruption %v: want both", drops, corruption)
	}
	for name, ps := range edgeProfiles() {
		corpus["edge "+name] = ps
	}
	if len(corpus["edge nil ByKey"].ByKey) != 0 {
		t.Fatal("edge corpus lost its null-profiles document")
	}
	for name, ps := range corpus {
		doc, err := Marshal(ps)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkOnePass(t, name, ps, doc)
	}
}

// TestNonCanonicalSeedsFallBack: the noncanonical_* seeds of
// FuzzReadProfiles mark the edge of the one-pass path, so CI's corpus
// replay checks the fallback. Each must be refused by the one-pass path.
func TestNonCanonicalSeedsFallBack(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/FuzzReadProfiles/noncanonical_*")
	if err != nil || len(files) < 9 {
		t.Fatalf("%d noncanonical seeds (err %v), want 9", len(files), err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lit := strings.TrimSpace(strings.TrimPrefix(string(raw), "go test fuzz v1\n"))
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if readCanonical([]byte(data)) != nil {
			t.Errorf("%s: decoded by the one-pass path", f)
		}
	}
}
