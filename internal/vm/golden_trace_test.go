package vm_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"aprof/internal/trace"
	"aprof/internal/vm"
	"aprof/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// goldenTraceModes are the interpreter configurations whose raw output the
// golden file pins: the default run and the finest interleaving.
var goldenTraceModes = []struct {
	name string
	opts vm.Options
}{
	{"default", vm.Options{}},
	{"quantum1", vm.Options{Quantum: 1}},
}

// goldenTracePrograms returns the VM workloads and the testdata corpus,
// keyed by a stable name.
func goldenTracePrograms(t *testing.T) map[string]string {
	t.Helper()
	progs := make(map[string]string)
	for _, p := range workloads.VMPrograms() {
		progs["workload/"+p.Name] = p.Source
	}
	files, err := filepath.Glob(filepath.Join("testdata", "*.ml"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		progs["testdata/"+filepath.Base(f)] = string(src)
	}
	return progs
}

// goldenTraceLine summarizes one run: the sha256 of the trace's APT2
// encoding, the step, block and thread counts, and the sha256 of the
// program output.
func goldenTraceLine(t *testing.T, name, mode string, src string, opts vm.Options) string {
	t.Helper()
	res, err := vm.RunSource(src, opts)
	if err != nil {
		t.Fatalf("%s %s: %v", name, mode, err)
	}
	var enc bytes.Buffer
	if err := trace.WriteBinary2(&enc, res.Trace); err != nil {
		t.Fatalf("%s %s: encode: %v", name, mode, err)
	}
	out := sha256.Sum256([]byte(strings.Join(res.Output, "\n")))
	return fmt.Sprintf("%s %s apt2=%x events=%d steps=%d blocks=%d threads=%d output=%d:%x",
		name, mode, sha256.Sum256(enc.Bytes()), len(res.Trace.Events),
		res.Steps, res.BasicBlocks, res.Threads, len(res.Output), out[:8])
}

// TestGoldenTraces pins the interpreter's raw output byte for byte: the
// APT2 encoding of every trace, Steps, BasicBlocks, Threads and Output,
// for the VM workloads and the testdata corpus under each mode in
// goldenTraceModes. Rewrite testdata/traces.golden with -update only for a
// change that is meant to alter what the VM emits.
func TestGoldenTraces(t *testing.T) {
	progs := goldenTracePrograms(t)
	names := make([]string, 0, len(progs))
	for name := range progs {
		names = append(names, name)
	}
	sort.Strings(names)
	var got strings.Builder
	for _, name := range names {
		for _, m := range goldenTraceModes {
			got.WriteString(goldenTraceLine(t, name, m.name, progs[name], m.opts))
			got.WriteByte('\n')
		}
	}
	path := filepath.Join("testdata", "traces.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("traces.golden has %d lines, run produced %d", len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("trace changed:\n got  %s\n want %s", gotLines[i], wantLines[i])
		}
	}
}
