package vm_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"aprof/internal/trace"
	"aprof/internal/vm"
)

// shortCircuitSrc jumps into the middle of straight-line sequences: the
// result of a || or && is a block leader between a const and the add that
// consumes it, so a fused form spanning a leader changes the block count.
const shortCircuitSrc = `fn main() {
	var a = 0;
	var b = 3;
	var s = 0;
	for (var i = 0; i < 4; i = i + 1) {
		s = s + (a || b);
		s = s * 2 + (i && b);
		s = s + !(i < 2);
	}
	print(s);
}`

// runOutcome renders everything a run exposes: the error text, or the APT2
// encoding of the trace with Steps, BasicBlocks, Threads and Output.
func runOutcome(t testing.TB, res *vm.Result, err error) string {
	t.Helper()
	if err != nil {
		return "error: " + err.Error()
	}
	var enc bytes.Buffer
	if err := trace.WriteBinary2(&enc, res.Trace); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return fmt.Sprintf("apt2=%x steps=%d blocks=%d threads=%d output=%q",
		enc.Bytes(), res.Steps, res.BasicBlocks, res.Threads, res.Output)
}

// checkFusedMatchesUnfused runs cp with fused and with unfused execution
// arrays and fails unless both runs end the same way.
func checkFusedMatchesUnfused(t testing.TB, cp *vm.CompiledProgram, opts vm.Options, what string) {
	t.Helper()
	fused, ferr := vm.RunProgram(cp, opts)
	plain, perr := vm.RunProgramUnfused(cp, opts)
	if got, want := runOutcome(t, fused, ferr), runOutcome(t, plain, perr); got != want {
		if len(got) > 300 {
			got = got[:300] + "..."
		}
		if len(want) > 300 {
			want = want[:300] + "..."
		}
		t.Fatalf("%s: fused run differs from unfused run\n fused   %s\n unfused %s", what, got, want)
	}
}

// TestFusedMatchesUnfusedStepSweep runs every testdata program of at most
// 3,000 steps, and shortCircuitSrc, with every MaxSteps from 1 to Steps+1,
// under three quanta: the
// fused interpreter must stop on the same instruction with the same error,
// or produce the same trace, counts and output, as the unfused one. The
// sweep puts the step limit inside every fused slot the programs execute.
func TestFusedMatchesUnfusedStepSweep(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.ml"))
	if err != nil {
		t.Fatal(err)
	}
	progs := map[string]string{"shortCircuitSrc": shortCircuitSrc}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		progs[f] = string(src)
	}
	swept, runs := 0, 0
	for f, src := range progs {
		cp, err := vm.Compile(src)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for _, quantum := range []int{0, 1, 3} {
			res, err := vm.RunProgramUnfused(cp, vm.Options{Quantum: quantum})
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			if res.Steps > 3000 {
				continue
			}
			swept++
			for max := uint64(1); max <= res.Steps+1; max++ {
				opts := vm.Options{Quantum: quantum, MaxSteps: max}
				runs++
				checkFusedMatchesUnfused(t, cp, opts, fmt.Sprintf("%s quantum=%d MaxSteps=%d", f, quantum, max))
			}
		}
	}
	if swept == 0 {
		t.Fatal("no testdata program is short enough to sweep")
	}
	t.Logf("%d program/quantum pairs, %d runs each way", swept, runs)
}

// FuzzFusedMatchesUnfused is the differential oracle for the fused
// execution arrays: every program that compiles must run the same with and
// without fusion, unoptimized and optimized — same error, or same trace,
// counts and output. It starts from FuzzParse's seeds plus programs that
// exercise the fused forms and their fallbacks.
func FuzzFusedMatchesUnfused(f *testing.F) {
	addFuzzSeeds(f)
	f.Add(shortCircuitSrc)
	f.Add("fn main() { var x = 7; print(x % 0); }")
	f.Add("fn main() { var i = 0; while (i < 10) { i = i + 1; } print(i); }")
	f.Add("fn main() { var a = 3; var b = 4; print(a + b, a * 5 + b, 2 + a, a % 3); }")
	f.Add("fn main() { var a = alloc(4); a[1] = 5; print(a[0 + 1] + a[1] * 2); }")
	f.Fuzz(func(t *testing.T, src string) {
		cp, err := vm.Compile(src)
		if err != nil {
			return
		}
		opts := vm.Options{MaxSteps: 50_000, HeapLimit: 1 << 16}
		checkFusedMatchesUnfused(t, cp, opts, "unoptimized")
		if _, err := cp.Optimize(); err != nil {
			t.Fatalf("optimizer broke verification: %v\nsource: %q", err, src)
		}
		checkFusedMatchesUnfused(t, cp, opts, "optimized")
	})
}
