package vm_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"aprof/internal/vm"
	"aprof/internal/vm/analysis"
)

// FuzzParse fuzzes the MiniLang front end and the analysis pipeline:
// lexing and parsing arbitrary input must either succeed or return an
// error — never panic — and a program that parses must also print and
// re-parse (the printer emits valid MiniLang), lint without panicking, and
// compile without panicking. The bytecode verifier is the compile-time
// oracle: whatever the compiler accepts must verify, both before and after
// optimization (importing the analysis package wires verification into
// Compile and Optimize themselves), and verified programs must never panic
// the interpreter, however they terminate.
func FuzzParse(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := vm.Parse(src)
		if err != nil {
			return
		}
		printed := prog.String()
		if _, err := vm.Parse(printed); err != nil {
			t.Fatalf("printer emitted unparsable MiniLang: %v\nsource: %q\nprinted: %q", err, src, printed)
		}
		// The lint pass must handle any parseable program.
		_ = analysis.Lint(prog)
		// Compilation may reject the program (unknown names, arity
		// errors...) but must not panic — and must never emit bytecode the
		// verifier rejects (CompileProgram runs the verifier internally; a
		// VerifyError here is a compiler bug, not an input problem).
		cp, err := vm.CompileProgram(prog)
		if err != nil {
			var verr *analysis.VerifyError
			if errors.As(err, &verr) {
				t.Fatalf("compiler emitted unverifiable bytecode: %v\nsource: %q", err, src)
			}
			return
		}
		// Differential oracle: optimizing verified bytecode must yield
		// verified bytecode.
		if _, err := cp.Optimize(); err != nil {
			t.Fatalf("optimizer broke verification: %v\nsource: %q", err, src)
		}
		// Verified programs must never panic the interpreter; runtime
		// errors (division by zero, deadlock, step limit...) are fine.
		_, _ = vm.RunProgram(cp, vm.Options{MaxSteps: 50_000, HeapLimit: 1 << 16})
	})
}

// addFuzzSeeds seeds a MiniLang fuzz target with the testdata corpus and
// small programs covering each language feature and lint diagnostic.
func addFuzzSeeds(f *testing.F) {
	corpus, err := filepath.Glob(filepath.Join("testdata", "*.ml"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range corpus {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add("fn main() { }")
	f.Add("global g = 1; fn main() { let x = g + 1; print(x); }")
	f.Add(`fn main() { let s = "a\nb"; }`)
	f.Add("fn f(a, b) { if a < b { return a; } return b; }")
	f.Add("fn main() { spawn f(); } fn f() { }")
	// Seeds exercising each lint diagnostic (V001..V006).
	f.Add("fn main() { print(x); var x = 1; }")                          // V001 use before declaration
	f.Add("fn main() { { var x = 1; print(x); } x = 2; }")               // V001 use outside scope
	f.Add("fn main() { var dead = 3; }")                                 // V002 unused variable
	f.Add("fn main() { } fn orphan() { return 1; }")                     // V003 unused function
	f.Add("fn main() { return 0; print(1); }")                           // V004 unreachable code
	f.Add("fn main() { while (2 > 1) { break; } if (0) { print(1); } }") // V005 constant condition
	f.Add("fn f(a) { return a; } fn main() { print(f(1, 2)); }")         // V006 wrong arity
	f.Add("fn main() { var a = alloc(4); a[0] = rand(9); print(a[0]); }")
}
