package main

import (
	"io"
	"path/filepath"
	"testing"
	"time"
)

// TestWorkloadsTiny runs every workload untraced and traced at a tiny
// size. The oracle must pass on every op, and every metric BENCHMARK.json
// names must be emitted with its unit. No wall-clock value is asserted.
func TestWorkloadsTiny(t *testing.T) {
	spec, err := readBenchmarkSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadCtors) {
		t.Errorf("BENCHMARK.json names %d workloads, perfbench has %d", len(spec.Workloads), len(workloadCtors))
	}
	for _, wl := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			name := wl.Name + "/untraced"
			if traced {
				name = wl.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				o := options{
					Workload:  wl.Name,
					Seed:      3,
					Measure:   400 * time.Millisecond,
					Trace:     traced,
					Warmup:    100 * time.Millisecond,
					SetupReps: 2,
					Small:     true,
					DataDir:   filepath.Join(dir, "data"),
					SpansPath: filepath.Join(dir, "spans.jsonl"),
				}
				res, info, err := execute(o, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if info.Ops == 0 || info.NProc == 0 || info.Commit == "" || info.DataFS == "" {
					t.Errorf("incomplete run info: %+v", info)
				}
				want := map[string]string{}
				if traced {
					for _, m := range spec.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range spec.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				for name, unit := range want {
					got, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s not emitted", name)
					} else if got.Unit != unit {
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", name, got.Unit, unit)
					}
				}
				for name := range res.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s emitted but not named in BENCHMARK.json", name)
					}
				}
			})
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles = %v, %v; want 0.75, 2.25", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	pair := func(next []float64) [][2]float64 {
		var out [][2]float64
		for i := range next {
			out = append(out, [2]float64{base[i], next[i]})
		}
		return out
	}
	faster := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	same := []float64{101, 100, 99, 101, 100, 99, 100, 102, 98, 100}
	slower := []float64{130, 131, 129, 130, 132, 128, 130, 131, 129, 130}
	for _, c := range []struct {
		next []float64
		want string
	}{{faster, "better"}, {same, "no worse"}, {slower, "worse"}} {
		if got := judge(base, c.next, pair(c.next), false, 0.2).verdict; got != c.want {
			t.Errorf("judge(%v) = %s, want %s", c.next[:3], got, c.want)
		}
	}
	noisy := []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}
	if got := judge(noisy, same, pair(same), false, 0.2).verdict; got != "unresolved" {
		t.Errorf("judge on a noisy base = %s, want unresolved", got)
	}
}

func TestRecordParser(t *testing.T) {
	var p recordParser
	stream := []byte{'K', 0, 0, 'A', 0x80, 0x01, 'A', 5, 'E', 1, 2, 'h', 'i', 'F', 7}
	var kinds []byte
	for _, b := range stream { // one byte at a time: every split point
		kinds = append(kinds, p.feed([]byte{b})...)
	}
	if string(kinds) != "RAAEF" {
		t.Errorf("parsed %q, want RAAEF", kinds)
	}
}
