package core_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"aprof/internal/core"
	"aprof/internal/profio"
	"aprof/internal/trace"
	"aprof/internal/vm"
	"aprof/internal/workloads"
)

// TestRunMatchesPerCellReference profiles the workload suite, the MiniLang
// applications and the committed suite trace with the run-at-a-time read
// handler and with the per-cell reference, and requires byte-identical
// profile JSON under every input-source configuration.
func TestRunMatchesPerCellReference(t *testing.T) {
	type namedTrace struct {
		name string
		tr   *trace.Trace
	}
	var traces []namedTrace
	for _, b := range workloads.FullSuite() {
		traces = append(traces, namedTrace{"suite/" + b.Name, b.Build()})
	}
	for _, prog := range workloads.VMPrograms() {
		res, err := vm.RunSource(prog.Source, vm.Options{})
		if err != nil {
			t.Fatalf("%s: %v", prog.Name, err)
		}
		traces = append(traces, namedTrace{"vm/" + prog.Name, res.Trace})
	}
	data, err := os.ReadFile(filepath.Join("testdata", "suite_swim.apt2"))
	if err != nil {
		t.Fatal(err)
	}
	swim, err := trace.ReadBinary(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	traces = append(traces, namedTrace{"testdata/suite_swim.apt2", swim})

	encode := func(ps *core.Profiles, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := profio.Write(&buf, ps); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, nc := range core.ReferenceConfigs() {
		for _, nt := range traces {
			got := encode(core.Run(nt.tr, nc.Cfg))
			want := encode(core.RunPerCell(nt.tr, nc.Cfg))
			if !bytes.Equal(got, want) {
				n := 0
				for n < len(got) && n < len(want) && got[n] == want[n] {
					n++
				}
				t.Errorf("%s, %s: profile JSON differs from the per-cell reference at byte %d (%d vs %d bytes)\nrun:      %.120q\nper-cell: %.120q",
					nc.Name, nt.name, n, len(got), len(want), got[n:], want[n:])
			}
		}
	}
}
