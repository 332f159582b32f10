// Command perfbench is the repository's end-to-end benchmark. It drives
// three closed-loop workloads through the profiler's public entry points
// from one process and prints one JSON result line:
//
//	offline-vm            aprof -fit -json over the five MiniLang programs
//	ingest-bulk           one aprofd node with a checkpoint dir and a store,
//	                      loaded by two concurrent uploads of large traces
//	ingest-replicated-rw  two replicating aprofd nodes, small sessions with
//	                      many checkpoint boundaries, a store read per upload
//
// With -trace 0 it reports the end-to-end metrics of an untraced run; with
// -trace 1 it runs untraced and then traced and reports the per-layer
// ledger. See README.md in this directory for the metric definitions and
// the comparison mode (-compare).
//
// Run it from the repository root with bash perfbench/run.sh.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options fixes everything a run depends on besides the program itself.
type options struct {
	Workload string
	Seed     int64
	// Measure is the length of the timed phase (split in two halves,
	// untraced then traced, when Trace is set).
	Measure time.Duration
	Trace   bool
	// Warmup is the untimed closed-loop phase before each timed one.
	Warmup time.Duration
	// SetupReps is how many times the program's set-up is repeated; its
	// median is setup_s.
	SetupReps int
	// Small shrinks every input, for the package's own test.
	Small bool
	// DataDir receives the run's stores and checkpoint files; it is
	// created fresh and removed at the end.
	DataDir string
	// SpansPath, when set, receives the traced phase's spans as JSON lines.
	SpansPath string
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	workload := flags.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flags.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flags.Int("seconds", 10, "length of the timed phase in seconds")
	traceFlag := flags.Int("trace", 0, "1: report the per-layer ledger of a traced run instead of the end-to-end metrics")
	dataDir := flags.String("data", "", "directory for the run's stores (created, then removed; required)")
	spans := flags.String("spans", "", "with -trace 1: write the traced phase's spans as JSON lines to a file in this directory")
	compare := flags.Bool("compare", false, "compare two directories of saved run outputs: -compare <base-dir> <new-dir>")
	benchFile := flags.String("benchmark", "BENCHMARK.json", "with -compare: the file holding each metric's direction and bound")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if flags.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare needs two directories of run outputs")
			return 2
		}
		if err := compareRuns(stdout, *benchFile, flags.Arg(0), flags.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *dataDir == "" || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		flags.Usage()
		return 2
	}
	opts := options{
		Workload:  *workload,
		Seed:      *seed,
		Measure:   time.Duration(*seconds) * time.Second,
		Trace:     *traceFlag == 1,
		Warmup:    2 * time.Second,
		SetupReps: 31,
		DataDir:   *dataDir,
	}
	if *spans != "" {
		opts.SpansPath = filepath.Join(*spans, fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
	}
	res, info, err := execute(opts, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, _ := json.Marshal(map[string]any{"run_info": info})
	fmt.Fprintf(stdout, "%s\n", line)
	fmt.Fprintf(stderr, "perfbench: %s\n", line)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) {
	m[name] = metric{Value: value, Unit: unit}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// runInfo records what a run's numbers depend on, so that runs from
// different hosts or settings are never compared silently.
type runInfo struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	Seconds    float64 `json:"seconds"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	DataFS     string  `json:"data_fs"`
	Ops        int     `json:"ops"`
	P90Samples int     `json:"latency_p90_samples"`
	StealPct   float64 `json:"steal_pct"`
	SetupReps  int     `json:"setup_reps"`
	WarmupS    float64 `json:"warmup_s"`
	SpansFile  string  `json:"spans_file,omitempty"`
	GOGC       string  `json:"gogc,omitempty"`
	Clients    int     `json:"clients"`
	OpCycle    int     `json:"op_cycle"`
}

// workload is one closed-loop benchmark workload.
type workload interface {
	// clients is the number of concurrent closed-loop clients.
	clients() int
	// cycle is the number of distinct ops the closed loop cycles through.
	cycle() int
	// prepare generates, encodes and checks every input. It is not part
	// of the program's set-up and is not timed.
	prepare() error
	// start is the program's own set-up: opening stores, starting nodes.
	// A non-nil tracer installs the tracing wrappers.
	start(tr *tracer) error
	// stop undoes start.
	stop() error
	// op runs one operation of client c (its n-th) and returns the
	// operation's latency; it checks the output against the oracle.
	op(c, n int, id int64, tr *tracer) (time.Duration, error)
	// read runs the profile fetch that follows each op.
	read(c, n int, id int64, tr *tracer) (time.Duration, error)
	// counters sums the program's own counters that the ledger reports as
	// deltas (zero for a workload without them).
	counters() map[string]uint64
	// ledger adds the per-layer metrics of a traced phase.
	ledger(tr *tracer, ph *phase, m metrics)
}

var workloadCtors = map[string]func(o options) workload{
	"offline-vm":           newOfflineVM,
	"ingest-bulk":          newIngestBulk,
	"ingest-replicated-rw": newIngestReplicated,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloadCtors))
	for n := range workloadCtors {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// execute runs one benchmark invocation.
func execute(o options, logw io.Writer) (*result, *runInfo, error) {
	ctor, ok := workloadCtors[o.Workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q (want one of %s)", o.Workload, strings.Join(workloadNames(), ", "))
	}
	if err := os.RemoveAll(o.DataDir); err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(o.DataDir, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(o.DataDir)
	logf := func(format string, args ...any) { fmt.Fprintf(logw, "perfbench: "+format+"\n", args...) }

	w := ctor(o)
	if err := w.prepare(); err != nil {
		return nil, nil, fmt.Errorf("preparing inputs: %w", err)
	}
	defer w.stop()

	// The program's set-up, repeated: every repetition but the last is
	// torn down again, so the timed phase runs on the last one.
	var setups []float64
	for i := 0; i < o.SetupReps; i++ {
		t0 := time.Now()
		if err := w.start(nil); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < o.SetupReps-1 {
			if err := w.stop(); err != nil {
				return nil, nil, fmt.Errorf("set-up: %w", err)
			}
		}
	}
	logf("%s seed %d: set-up %.4fs (median of %d)", o.Workload, o.Seed, median(setups), len(setups))

	measure := o.Measure
	if o.Trace {
		measure /= 2
	}
	// peak_rss_mb covers the program from here on: the inputs' generation
	// above is the benchmark's, not the program's.
	debug.FreeOSMemory()
	resetPeakRSS()
	warm, err := runPhase(w, o.Warmup, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	plain, err := runPhase(w, measure, nil)
	if err != nil {
		return nil, nil, err
	}
	logf("untraced: %d ops in %.2fs, p50 %.3fms, %d failed", plain.ops(), plain.elapsed.Seconds(), median(plain.latencies), plain.failed)

	info := &runInfo{
		Workload:   o.Workload,
		Seed:       o.Seed,
		Trace:      o.Trace,
		Seconds:    o.Measure.Seconds(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     sourceCommit(),
		DataFS:     filesystemType(o.DataDir),
		Ops:        plain.ops(),
		P90Samples: plain.beyondP90(),
		StealPct:   plain.stealPct(),
		SetupReps:  o.SetupReps,
		WarmupS:    o.Warmup.Seconds(),
		GOGC:       os.Getenv("GOGC"),
		Clients:    w.clients(),
		OpCycle:    w.cycle(),
	}
	// Every op counts toward attempted and failed, warm-up included: a
	// failure anywhere fails the run.
	res := &result{Attempted: warm.attempted() + plain.attempted(), Failed: warm.failed + plain.failed, Metrics: metrics{}}

	if !o.Trace {
		plain.endToEnd(res.Metrics, median(setups), w.cycle())
	} else {
		// The traced phase runs on freshly started nodes carrying the
		// tracing wrappers, after its own warm-up.
		if err := w.stop(); err != nil {
			return nil, nil, err
		}
		tr := newTracer()
		if err := w.start(tr); err != nil {
			return nil, nil, fmt.Errorf("traced set-up: %w", err)
		}
		warm, err := runPhase(w, o.Warmup/2, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("traced warm-up: %w", err)
		}
		tr.reset()
		traced, err := runPhase(w, measure, tr)
		if err != nil {
			return nil, nil, err
		}
		logf("traced: %d ops in %.2fs, p50 %.3fms, %d failed", traced.ops(), traced.elapsed.Seconds(), median(traced.latencies), traced.failed)
		res.Attempted += warm.attempted() + traced.attempted()
		res.Failed += warm.failed + traced.failed
		m := res.Metrics
		plain.process(m)
		plain.wallClock(m)
		m.set("cpu_ms_per_op_mean", plain.cpuPerOp(), "ms")
		m.set("failed_pct", 100*float64(res.Failed)/float64(res.Attempted), "%")
		m.set("trace.overhead_pct", 100*(median(traced.latencies)/median(plain.latencies)-1), "%")
		m.set("trace.overhead_cpu_pct", 100*(traced.cpuPerOp()/plain.cpuPerOp()-1), "%")
		w.ledger(tr, traced, m)
		fillAbsent(m)
		tr.ledgerMetrics(m)
		if o.SpansPath != "" {
			if err := tr.writeSpans(o.SpansPath); err != nil {
				return nil, nil, err
			}
			info.SpansFile = o.SpansPath
		}
	}
	if err := w.stop(); err != nil {
		return nil, nil, err
	}
	res.Correct = res.Failed == 0
	if res.Attempted == 0 {
		return nil, nil, errors.New("no operation completed in the timed phase")
	}
	return res, info, nil
}

// phase is the outcome of one closed-loop phase.
type phase struct {
	latencies []float64 // ms, successful ops
	reads     []float64 // ms, successful reads
	// cpuMarks is the process CPU time at each successful op's
	// completion.
	cpuMarks  []time.Duration
	failed    int
	elapsed   time.Duration
	before    procStats
	after     procStats
	counters0 map[string]uint64
	counters1 map[string]uint64
}

func (p *phase) ops() int       { return len(p.latencies) }
func (p *phase) attempted() int { return len(p.latencies) + p.failed }

// beyondP90 is the number of samples above the 90th percentile.
func (p *phase) beyondP90() int {
	n := 0
	q := quantile(p.latencies, 0.9)
	for _, l := range p.latencies {
		if l > q {
			n++
		}
	}
	return n
}

func (p *phase) cpuPerOp() float64 {
	if p.ops() == 0 {
		return 0
	}
	return ms(p.after.cpu-p.before.cpu) / float64(p.ops())
}

// cpuPerOpMedian splits the phase's completions into about 16 runs of
// consecutive ops, each a whole number of op cycles so that every run
// holds the same mix of inputs, and returns the median run's CPU per op:
// a burst of interference moves a few runs, not the median.
func (p *phase) cpuPerOpMedian(cycle int) float64 {
	k := cycle * max(1, len(p.cpuMarks)/(16*cycle))
	var per []float64
	for i := 0; i+k < len(p.cpuMarks); i += k {
		per = append(per, ms(p.cpuMarks[i+k]-p.cpuMarks[i])/float64(k))
	}
	if len(per) == 0 {
		return p.cpuPerOp()
	}
	return median(per)
}

// stealPct is the share of the host's CPU time stolen from this machine
// by the hypervisor during the phase.
func (p *phase) stealPct() float64 {
	total := p.after.cpuTotal - p.before.cpuTotal
	if total == 0 {
		return 0
	}
	return 100 * float64(p.after.steal-p.before.steal) / float64(total)
}

func (p *phase) counter(name string) float64 {
	return float64(p.counters1[name] - p.counters0[name])
}

// endToEnd sets the end-to-end metrics of an untraced phase: the ones
// that repeat from run to run on a shared host. Wall-clock throughput and
// op latency move with the CPU time the hypervisor steals from the
// machine, so they are reported with the per-layer metrics (wallClock).
func (p *phase) endToEnd(m metrics, setupS float64, cycle int) {
	m.set("cpu_ms_per_op", p.cpuPerOpMedian(cycle), "ms")
	m.set("peak_rss_mb", peakRSSMB(), "MB")
	m.set("read_p50_ms", median(p.reads), "ms")
	m.set("setup_s", setupS, "s")
}

// wallClock sets the phase's wall-clock metrics and the machine's steal.
func (p *phase) wallClock(m metrics) {
	m.set("ops_per_s", float64(p.ops())/p.elapsed.Seconds(), "1/s")
	m.set("latency_p50_ms", median(p.latencies), "ms")
	m.set("latency_p90_ms", quantile(p.latencies, 0.9), "ms")
	m.set("latency_p90_samples", float64(p.beyondP90()), "count")
	m.set("host.steal_pct", p.stealPct(), "%")
}

// process sets the process-level per-op costs of a phase.
func (p *phase) process(m metrics) {
	n := float64(max(p.ops(), 1))
	m.set("go.gc_per_op", float64(p.after.numGC-p.before.numGC)/n, "count")
	m.set("go.alloc_mb_per_op", float64(p.after.allocated-p.before.allocated)/(1<<20)/n, "MB")
	m.set("io.write_kb_per_op", float64(p.after.wchar-p.before.wchar)/1024/n, "KB")
}

// runPhase runs the workload's closed loop for d: every client issues its
// next op (and the read that follows it) as soon as the previous one
// completes, and stops issuing once d has elapsed. The phase ends when the
// last client has returned.
func runPhase(w workload, d time.Duration, tr *tracer) (*phase, error) {
	p := &phase{counters0: w.counters()}
	var mu sync.Mutex
	var opIDs atomic.Int64
	var wg sync.WaitGroup
	p.before = sampleProc()
	deadline := p.before.at.Add(d)
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; time.Now().Before(deadline); n++ {
				id := opIDs.Add(1)
				lat, err := w.op(c, n, id, tr)
				var rd time.Duration
				if err == nil {
					rd, err = w.read(c, n, id, tr)
				}
				mu.Lock()
				if err != nil {
					p.failed++
					if p.failed <= 5 {
						fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", id, err)
					}
				} else {
					p.latencies = append(p.latencies, ms(lat))
					p.reads = append(p.reads, ms(rd))
					p.cpuMarks = append(p.cpuMarks, processCPU())
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	p.after = sampleProc()
	p.elapsed = p.after.at.Sub(p.before.at)
	p.counters1 = w.counters()
	if len(p.latencies) == 0 {
		return p, fmt.Errorf("no operation succeeded in %v (%d failed)", d, p.failed)
	}
	return p, nil
}

// sourceCommit identifies the program under test, run from the
// repository root: the git commit when the checkout has one, else a digest
// of the Go sources.
func sourceCommit() string {
	root := "."
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if id, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
				return strings.TrimSpace(string(id))
			}
		} else {
			return ref
		}
	}
	return "src-" + sourceDigest(root)
}

// filesystemType names the filesystem holding dir (from statfs).
func filesystemType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// sourceDigest hashes the Go sources and module files under root, skipping
// hidden directories (build outputs, version control).
func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			if data, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s %d\n", path, len(data))
				h.Write(data)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:12]
}
