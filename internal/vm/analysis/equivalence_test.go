package analysis

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"aprof"
	"aprof/internal/core"
	"aprof/internal/profio"
	"aprof/internal/vm"
	"aprof/internal/workloads"
)

// The equivalence pin: the VM once had a second, redundancy-eliding tracer
// whose profiles were proven byte-identical to the full tracer's (modulo
// Profiles.Events, which counts the events fed to the profiler). Its
// profiles over the corpus, for every VM variant and profiler configuration
// below, are recorded in testdata/equivalence.golden, and the one remaining
// tracer must still reproduce them. The golden holds, per program, the
// execution counters and a digest of the program output, and per run a
// digest of the JSON profile with Events zeroed (or "fault" when the
// program faults). A mismatch means the VM or the profiler changed what it
// measures; regenerate only for a deliberate change, with
//
//	go test ./internal/vm/analysis -run TestSuppressEquivalenceCorpus -update
//
// Configurations with Limits.MaxEvents or MaxMemoryBytes sample memory
// events past a threshold measured in events processed — a quantity the
// eliding tracer changed by design — so they are not part of the pin.

const equivalenceGolden = "testdata/equivalence.golden"

// equivalenceSources gathers the corpus: the characterization workloads,
// the committed testdata programs, and the effects corpus.
func equivalenceSources(t testing.TB) map[string]string {
	srcs := make(map[string]string)
	for _, p := range workloads.VMPrograms() {
		srcs["workload/"+p.Name] = p.Source
	}
	for _, dir := range []string{filepath.Join("..", "testdata"), filepath.Join("..", "testdata", "effects")} {
		files, err := filepath.Glob(filepath.Join(dir, "*.ml"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			srcs[filepath.Base(f)] = string(b)
		}
	}
	if len(srcs) < 10 {
		t.Fatalf("equivalence corpus unexpectedly small: %d programs", len(srcs))
	}
	return srcs
}

// eqConfigs is the profiler-configuration sweep: every supported analysis
// mode whose output is defined independently of the event count.
func eqConfigs() []struct {
	name string
	cfg  core.Config
} {
	withDefault := func(mut func(*core.Config)) core.Config {
		c := core.DefaultConfig()
		mut(&c)
		return c
	}
	return []struct {
		name string
		cfg  core.Config
	}{
		{"default", core.DefaultConfig()},
		{"rms-only", core.RMSOnlyConfig()},
		{"external-only", aprof.ExternalOnlyConfig()},
		{"context-sensitive", withDefault(func(c *core.Config) { c.ContextSensitive = true })},
		{"counter-limit", withDefault(func(c *core.Config) { c.CounterLimit = 4096 })},
		{"max-depth", withDefault(func(c *core.Config) { c.Limits.MaxDepth = 2 })},
		{"max-points", withDefault(func(c *core.Config) { c.MaxPointsPerProfile = 4 })},
	}
}

// eqVMSweep is the VM scheduling/optimization sweep, profiled under the
// default configuration.
var eqVMSweep = []struct {
	name string
	opts vm.Options
}{
	{"default", vm.Options{}},
	{"quantum1", vm.Options{Quantum: 1}},
	{"quantum3", vm.Options{Quantum: 3}},
	{"optimized", vm.Options{Optimize: true}},
	{"optimized-quantum1", vm.Options{Optimize: true, Quantum: 1}},
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%x", sum[:8])
}

// profileDigest profiles res's trace under cfg and digests the JSON
// serialization with Events zeroed.
func profileDigest(t *testing.T, res *vm.Result, cfg core.Config) string {
	t.Helper()
	ps, err := core.Run(res.Trace, cfg)
	if err != nil {
		t.Fatalf("profile trace: %v", err)
	}
	ps.Events = 0
	var buf bytes.Buffer
	if err := profio.Write(&buf, ps); err != nil {
		t.Fatal(err)
	}
	return digest(buf.Bytes())
}

func readEquivalenceGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(equivalenceGolden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), "\t")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[key] = val
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestSuppressEquivalenceCorpus checks the corpus against the pinned
// profiles across the VM sweep (default configuration) and across the
// profiler-configuration sweep (default VM options).
func TestSuppressEquivalenceCorpus(t *testing.T) {
	var want map[string]string
	if !*updateGolden {
		want = readEquivalenceGolden(t)
	}
	got := make(map[string]string)
	check := func(t *testing.T, key, val string) {
		t.Helper()
		got[key] = val
		if want != nil && want[key] != val {
			t.Errorf("%s: got %q, pinned %q", key, val, want[key])
		}
	}
	for name, src := range equivalenceSources(t) {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			var base *vm.Result
			for _, v := range eqVMSweep {
				key := name + " vm=" + v.name
				res, err := vm.RunSource(src, v.opts)
				if err != nil {
					check(t, key, "fault")
					continue
				}
				if v.name == "default" {
					base = res
					check(t, name+" run", fmt.Sprintf("steps=%d blocks=%d threads=%d output=%s",
						res.Steps, res.BasicBlocks, res.Threads, digest([]byte(strings.Join(res.Output, "\n")))))
				}
				check(t, key, profileDigest(t, res, core.DefaultConfig()))
			}
			if base == nil {
				return
			}
			for _, c := range eqConfigs() {
				t.Run(c.name, func(t *testing.T) {
					check(t, name+" cfg="+c.name, profileDigest(t, base, c.cfg))
				})
			}
		})
	}
	if want != nil {
		for key := range want {
			if _, ok := got[key]; !ok {
				t.Errorf("%s: pinned but no longer in the corpus", key)
			}
		}
		return
	}
	keys := make([]string, 0, len(got))
	for key := range got {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, key := range keys {
		fmt.Fprintf(&sb, "%s\t%s\n", key, got[key])
	}
	if err := os.WriteFile(equivalenceGolden, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
