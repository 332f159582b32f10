package profio

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"aprof/internal/core"
	"aprof/internal/workloads"
)

func sampleProfiles(t *testing.T) *core.Profiles {
	t.Helper()
	ps, err := core.Run(workloads.ProducerConsumer(20), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

func TestRoundTrip(t *testing.T) {
	ps := sampleProfiles(t)
	var buf bytes.Buffer
	if err := Write(&buf, ps); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	checkSameProfiles(t, got, ps)
	// Plots derived from the restored profiles match.
	origPlot := ps.Routine("consumer").WorstCasePlot(core.MetricDRMS)
	gotPlot := got.Routine("consumer").WorstCasePlot(core.MetricDRMS)
	if !reflect.DeepEqual(origPlot, gotPlot) {
		t.Error("worst-case plot changed across round trip")
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"garbage", "not json"},
		{"bad format", `{"format": 99, "profiles": []}`},
		{"unknown field", `{"format": 1, "bogus": 1, "profiles": []}`},
		{"duplicate profile", `{"format":1,"generator":"x","events":0,"renumberings":0,"profiles":[
			{"routine":"f","thread":1,"calls":1,"sum_rms":0,"sum_drms":0,"first_reads":0,"induced_thread":0,"induced_external":0,"total_cost":0,"drms_points":[],"rms_points":[]},
			{"routine":"f","thread":1,"calls":1,"sum_rms":0,"sum_drms":0,"first_reads":0,"induced_thread":0,"induced_external":0,"total_cost":0,"drms_points":[],"rms_points":[]}]}`},
		{"duplicate point", `{"format":1,"generator":"x","events":0,"renumberings":0,"profiles":[
			{"routine":"f","thread":1,"calls":1,"sum_rms":0,"sum_drms":0,"first_reads":0,"induced_thread":0,"induced_external":0,"total_cost":0,
			 "drms_points":[{"n":1,"count":1,"max":1,"min":1,"sum":1,"sumsq":1},{"n":1,"count":1,"max":1,"min":1,"sum":1,"sumsq":1}],"rms_points":[]}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Read(strings.NewReader(tc.src)); err == nil {
				t.Error("Read accepted malformed input")
			}
		})
	}
}

func TestWriteIsDeterministic(t *testing.T) {
	ps := sampleProfiles(t)
	var a, b bytes.Buffer
	if err := Write(&a, ps); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, ps); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("two writes of the same profiles differ")
	}
	if !strings.Contains(a.String(), `"routine": "consumer"`) {
		t.Error("output missing expected routine")
	}
}

func TestMetricsSurviveRoundTrip(t *testing.T) {
	ps := sampleProfiles(t)
	var buf bytes.Buffer
	if err := Write(&buf, ps); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	orig := ps.Routine("consumer")
	rest := got.Routine("consumer")
	if orig.InducedReads() != rest.InducedReads() || orig.ReadOps() != rest.ReadOps() {
		t.Error("derived metrics changed across round trip")
	}
	if _, ok := got.Symbols.Lookup("producer"); !ok {
		t.Error("symbol table incomplete after round trip")
	}
}

// TestDropsSurviveRoundTrip: drop counters whose uint64 sum wraps to zero
// are still written, so Read → Write → Read keeps them.
func TestDropsSurviveRoundTrip(t *testing.T) {
	src := `{"format":1,"generator":"aprof-drms","events":0,"renumberings":0,` +
		`"drops":{"returnWithoutCall":9223372036854775808,"unknownRoutine":9223372036854775808},"profiles":null}`
	ps, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := Marshal(ps)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Read(bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if back.Drops != ps.Drops {
		t.Fatalf("drops after round trip = %+v, want %+v\n%s", back.Drops, ps.Drops, doc)
	}
}
