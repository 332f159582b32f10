package analysis_test

import (
	"testing"

	"aprof/internal/vm"
	"aprof/internal/vm/analysis"
)

// FuzzEffects fuzzes the effect analysis: any program the front end
// accepts and the bytecode verifier passes (this package installs the
// verifier into vm.Compile) must also analyze.
func FuzzEffects(f *testing.F) {
	for _, src := range []string{
		"fn main() { var a = alloc(4); a[0] = 1; a[0] = 2; print(a[0]); }",
		"fn main() { var a = alloc(8); var s = a[0] + a[1] + a[0]; a[2] = s; a[3] = s; print(s); }",
		"fn main() { var a = alloc(4); sysread(a, 4); print(a[0]); syswrite(a, 2); }",
		"fn f(p, i) { p[i] = p[i] + 1; return p[i]; } fn main() { var a = alloc(4); print(f(a, 2)); }",
		"global g = 0; fn main() { g = 1; g = 2; for (var i = 0; i < 3; i = i + 1) { g = g + i; } print(g); }",
		"fn w(s) { wait(s); print(1); return 0; } fn main() { var s = sem(0); spawn w(s); signal(s); }",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			return
		}
		if _, err := vm.Compile(src); err != nil {
			return
		}
		if _, _, err := analysis.Effects(src); err != nil {
			t.Fatalf("verified program failed effect analysis: %v\nsource: %q", err, src)
		}
	})
}
