package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the comparison reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readBenchmarkSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// savedRun is one saved benchmark output: its run-info line and result.
type savedRun struct {
	file   string
	info   runInfo
	result result
}

// loadRuns reads every file in dir holding a benchmark output (a run_info
// line followed, as the last line, by the result).
func loadRuns(dir string) ([]savedRun, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var runs []savedRun
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		r, ok, err := loadRun(path)
		if err != nil {
			return nil, err
		}
		if ok {
			runs = append(runs, r)
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no benchmark outputs", dir)
	}
	return runs, nil
}

func loadRun(path string) (savedRun, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return savedRun{}, false, err
	}
	defer f.Close()
	r := savedRun{file: path}
	var last string
	haveInfo := false
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		last = line
		var wrapped struct {
			RunInfo *runInfo `json:"run_info"`
		}
		if strings.HasPrefix(line, `{"run_info"`) && json.Unmarshal([]byte(line), &wrapped) == nil && wrapped.RunInfo != nil {
			r.info, haveInfo = *wrapped.RunInfo, true
		}
	}
	if err := sc.Err(); err != nil {
		return r, false, fmt.Errorf("%s: %w", path, err)
	}
	if !haveInfo || json.Unmarshal([]byte(last), &r.result) != nil || r.result.Metrics == nil {
		return r, false, nil
	}
	return r, true, nil
}

// compareRuns prints, for every workload and end-to-end metric, both
// sets' medians and quartiles, the pair wins of the new set, and a
// verdict: better, no worse, worse, or unresolved.
func compareRuns(w io.Writer, specPath, baseDir, newDir string) error {
	spec, err := readBenchmarkSpec(specPath)
	if err != nil {
		return err
	}
	base, err := loadRuns(baseDir)
	if err != nil {
		return err
	}
	next, err := loadRuns(newDir)
	if err != nil {
		return err
	}
	for _, warn := range settingDifferences(append(append([]savedRun(nil), base...), next...)) {
		fmt.Fprintln(w, "warning:", warn)
	}
	fmt.Fprintf(w, "%-21s %-15s %28s %28s %7s %6s %6s  %s\n",
		"workload", "metric", "base median [q1 q3]", "new median [q1 q3]", "spread", "bound", "wins", "verdict")
	for _, wl := range spec.Workloads {
		b, n := untraced(base, wl.Name), untraced(next, wl.Name)
		if len(b) == 0 || len(n) == 0 {
			fmt.Fprintf(w, "%-21s (no untraced runs in both sets)\n", wl.Name)
			continue
		}
		for _, mt := range spec.EndToEnd {
			bv, nv := values(b, mt.Name), values(n, mt.Name)
			if len(bv) == 0 || len(nv) == 0 {
				fmt.Fprintf(w, "%-21s %-15s (not reported)\n", wl.Name, mt.Name)
				continue
			}
			c := judge(bv, nv, pairs(b, n, mt.Name), mt.Better == "higher", mt.Bound)
			fmt.Fprintf(w, "%-21s %-15s %28s %28s %6.1f%% %5.0f%% %6s  %s\n",
				wl.Name, mt.Name, summary(bv), summary(nv), 100*c.spread, 100*mt.Bound,
				fmt.Sprintf("%d/%d", c.wins, c.pairs), c.verdict)
		}
	}
	return nil
}

// settingDifferences lists run settings that differ across the runs.
func settingDifferences(runs []savedRun) []string {
	var out []string
	check := func(what string, f func(runInfo) string) {
		seen := map[string]bool{}
		for _, r := range runs {
			seen[f(r.info)] = true
		}
		if len(seen) > 1 {
			var vals []string
			for v := range seen {
				vals = append(vals, v)
			}
			sort.Strings(vals)
			out = append(out, fmt.Sprintf("runs differ in %s: %s", what, strings.Join(vals, ", ")))
		}
	}
	check("nproc", func(i runInfo) string { return fmt.Sprint(i.NProc) })
	check("GOMAXPROCS", func(i runInfo) string { return fmt.Sprint(i.GOMAXPROCS) })
	check("Go version", func(i runInfo) string { return i.GoVersion })
	check("run length", func(i runInfo) string { return fmt.Sprint(i.Seconds) })
	check("data filesystem", func(i runInfo) string { return i.DataFS })
	return out
}

func untraced(runs []savedRun, workload string) []savedRun {
	var out []savedRun
	for _, r := range runs {
		if r.info.Workload == workload && !r.info.Trace {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].info.Seed < out[j].info.Seed })
	return out
}

func values(runs []savedRun, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.result.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// pairs matches runs of the two sets by seed, or by order when the sets
// used different seeds.
func pairs(base, next []savedRun, name string) [][2]float64 {
	bySeed := map[int64]float64{}
	for _, r := range base {
		if m, ok := r.result.Metrics[name]; ok {
			bySeed[r.info.Seed] = m.Value
		}
	}
	var out [][2]float64
	for _, r := range next {
		m, ok := r.result.Metrics[name]
		if b, found := bySeed[r.info.Seed]; ok && found {
			out = append(out, [2]float64{b, m.Value})
		}
	}
	if len(out) > 0 {
		return out
	}
	bv, nv := values(base, name), values(next, name)
	for i := 0; i < min(len(bv), len(nv)); i++ {
		out = append(out, [2]float64{bv[i], nv[i]})
	}
	return out
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g %.4g]", median(xs), q1, q3)
}

// comparison is the verdict on one metric of one workload.
type comparison struct {
	spread  float64 // base IQR as a share of its median
	wins    int
	pairs   int
	verdict string
}

// judge applies the acceptance rules: a gain needs nine tenths of the
// pairs and a median difference beyond the base set's own quartile
// spread; a loss is a median worse by more than the bound; and a base
// spread wider than the bound leaves the metric unresolved unless every
// new run beats every base run.
func judge(base, next []float64, prs [][2]float64, higher bool, bound float64) comparison {
	better := func(a, b float64) bool { // a better than b
		if higher {
			return a > b
		}
		return a < b
	}
	bm, nm := median(base), median(next)
	q1, q3 := quartiles(base)
	c := comparison{pairs: len(prs)}
	if bm != 0 {
		c.spread = (q3 - q1) / bm
	}
	for _, p := range prs {
		if better(p[1], p[0]) {
			c.wins++
		}
	}
	diff := nm - bm
	if !higher {
		diff = -diff
	}
	allBetter := true
	for _, n := range next {
		for _, b := range base {
			if !better(n, b) {
				allBetter = false
			}
		}
	}
	switch {
	case c.pairs > 0 && float64(c.wins) >= 0.9*float64(c.pairs) && diff > q3-q1:
		c.verdict = "better"
	case -diff > bound*bm:
		c.verdict = "worse"
	case c.spread > bound && !allBetter:
		c.verdict = "unresolved"
	default:
		c.verdict = "no worse"
	}
	return c
}
