package vm

import (
	"errors"
	"strings"
	"testing"

	"aprof/internal/trace"
)

func run(t *testing.T, src string) *Result {
	t.Helper()
	res, err := RunSource(src, Options{})
	if err != nil {
		t.Fatalf("RunSource: %v", err)
	}
	if err := res.Trace.Validate(); err != nil {
		t.Fatalf("emitted trace invalid: %v", err)
	}
	return res
}

func wantOutput(t *testing.T, res *Result, want ...string) {
	t.Helper()
	if len(res.Output) != len(want) {
		t.Fatalf("output = %q, want %q", res.Output, want)
	}
	for i := range want {
		if res.Output[i] != want[i] {
			t.Errorf("output[%d] = %q, want %q", i, res.Output[i], want[i])
		}
	}
}

func TestArithmetic(t *testing.T) {
	res := run(t, `
fn main() {
	print(1 + 2 * 3);
	print(10 / 3, 10 % 3);
	print(-(4 - 9));
	print(!0, !5);
	print(1 < 2, 2 <= 2, 3 > 4, 4 >= 4, 1 == 1, 1 != 1);
}`)
	wantOutput(t, res, "7", "3 1", "5", "1 0", "1 1 0 1 1 0")
}

func TestShortCircuit(t *testing.T) {
	// If && and || were not short-circuiting, the division by zero in the
	// right operand would abort the run.
	res := run(t, `
fn boom() { return 1 / 0; }
fn main() {
	print(0 && boom());
	print(1 || boom());
	print(1 && 2, 0 || 0);
}`)
	wantOutput(t, res, "0", "1", "1 0")
}

func TestControlFlow(t *testing.T) {
	res := run(t, `
fn main() {
	var total = 0;
	for (var i = 1; i <= 10; i = i + 1) {
		if (i % 2 == 0) {
			total = total + i;
		}
	}
	var j = 3;
	while (j > 0) {
		total = total * 2;
		j = j - 1;
	}
	print(total);
}`)
	wantOutput(t, res, "240") // (2+4+6+8+10)=30, *8
}

func TestFunctionsAndRecursion(t *testing.T) {
	res := run(t, `
fn fib(n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
fn main() { print(fib(15)); }`)
	wantOutput(t, res, "610")
}

func TestGlobalsAndArrays(t *testing.T) {
	res := run(t, `
global counter = 10;
global table[8];
fn main() {
	counter = counter + 5;
	for (var i = 0; i < 8; i = i + 1) {
		table[i] = i * i;
	}
	print(counter, table[3], table[7]);
}`)
	wantOutput(t, res, "15 9 49")
}

func TestAllocAndIndexing(t *testing.T) {
	res := run(t, `
fn sum(arr, n) {
	var s = 0;
	for (var i = 0; i < n; i = i + 1) {
		s = s + arr[i];
	}
	return s;
}
fn main() {
	var a = alloc(16);
	for (var i = 0; i < 16; i = i + 1) {
		a[i] = i;
	}
	print(sum(a, 16));
}`)
	wantOutput(t, res, "120")
}

func TestPrintFormats(t *testing.T) {
	res := run(t, `
fn main() {
	print("result:", 42);
	print("no args");
	print(1, 2, 3);
}`)
	wantOutput(t, res, "result: 42", "no args", "1 2 3")
}

func TestSysReadProvidesFreshData(t *testing.T) {
	res := run(t, `
fn main() {
	var b = alloc(4);
	sysread(b, 4);
	print(b[0], b[1], b[2], b[3]);
	sysread(b, 2);
	print(b[0], b[1], b[2], b[3]);
}`)
	// The external stream is the sequence 1,2,3,...
	wantOutput(t, res, "1 2 3 4", "5 6 3 4")
}

func TestThreadsAndSemaphores(t *testing.T) {
	res := run(t, `
global cell = 0;
global done = 0;
fn worker(id, items) {
	for (var i = 0; i < items; i = i + 1) {
		wait(empty);
		cell = id * 100 + i;
		signal(full);
	}
	wait(mutex);
	done = done + 1;
	signal(mutex);
}
global empty = 0;
global full = 0;
global mutex = 0;
fn main() {
	empty = sem(1);
	full = sem(0);
	mutex = sem(1);
	spawn worker(1, 3);
	var got = 0;
	for (var i = 0; i < 3; i = i + 1) {
		wait(full);
		got = got + cell;
		signal(empty);
	}
	print(got);
}`)
	// Values 100, 101, 102 in order.
	wantOutput(t, res, "303")
	if res.Threads != 2 {
		t.Errorf("Threads = %d, want 2", res.Threads)
	}
}

func TestSpawnManyThreads(t *testing.T) {
	res := run(t, `
global acc[1];
global mutex = 0;
fn inc(n) {
	for (var i = 0; i < n; i = i + 1) {
		wait(mutex);
		acc[0] = acc[0] + 1;
		signal(mutex);
	}
}
fn main() {
	mutex = sem(1);
	spawn inc(10);
	spawn inc(10);
	spawn inc(10);
	inc(10);
	// Busy-wait until all increments have landed. The scheduler is
	// round-robin, so this terminates.
	while (acc[0] < 40) {
	}
	print(acc[0]);
}`)
	wantOutput(t, res, "40")
	if res.Threads != 4 {
		t.Errorf("Threads = %d, want 4", res.Threads)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"div zero", `fn main() { print(1 / 0); }`, "division by zero"},
		{"mod zero", `fn main() { print(1 % 0); }`, "division by zero"},
		{"oob", `fn main() { var a = alloc(2); print(a[5]); }`, "invalid memory access"},
		{"null", `fn main() { var p = 0; print(p[0]); }`, "invalid memory access"},
		{"negative alloc", `fn main() { var a = alloc(0 - 3); }`, "non-positive"},
		{"bad sem", `fn main() { wait(42); }`, "invalid semaphore"},
		{"deadlock", `fn main() { var s = sem(0); wait(s); }`, "deadlock"},
		{"depth", `fn f() { return f(); } fn main() { f(); }`, "stack overflow"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RunSource(tc.src, Options{})
			if err == nil {
				t.Fatal("run succeeded, want error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestStepLimit(t *testing.T) {
	_, err := RunSource(`fn main() { while (1) {} }`, Options{MaxSteps: 10000})
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Errorf("err = %v, want step limit error", err)
	}
}

// TestStepLimitBoundary pins the MaxSteps check at its edge: a run of
// exactly K instructions succeeds with MaxSteps K, and with K-1 (or fewer)
// fails on the instruction that would exceed the budget, reported with its
// function and line.
func TestStepLimitBoundary(t *testing.T) {
	const calls = `fn sq(x) {
	return x * x;
}
fn main() {
	var s = 0;
	for (var i = 0; i < 5; i = i + 1) {
		s = s + sq(i);
	}
	print(s);
}`
	const threads = `global acc = 0;
fn worker(m, n) {
	for (var i = 0; i < n; i = i + 1) {
		wait(m);
		acc = acc + 1;
		signal(m);
	}
}
fn main() {
	var m = sem(1);
	spawn worker(m, 7);
	spawn worker(m, 9);
	worker(m, 3);
	while (acc < 19) {
	}
	print(acc);
}`
	const limit = "step limit exceeded (infinite loop?)"
	cases := []struct {
		name    string
		src     string
		quantum int
		steps   uint64
		// errLast is the error with MaxSteps = steps-1; errMid the error
		// with MaxSteps = steps/2.
		errLast, errMid string
	}{
		{"calls", calls, 0, 103, "main (line 4)", "main (line 7)"},
		{"calls/quantum1", calls, 1, 103, "main (line 4)", "main (line 7)"},
		{"threads", threads, 0, 543, "main (line 9)", "worker (line 4)"},
		{"threads/quantum1", threads, 1, 501, "worker (line 2)", "worker (line 3)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunSource(tc.src, Options{Quantum: tc.quantum, MaxSteps: tc.steps})
			if err != nil {
				t.Fatalf("MaxSteps %d: %v", tc.steps, err)
			}
			if res.Steps != tc.steps {
				t.Fatalf("Steps = %d, want %d", res.Steps, tc.steps)
			}
			for _, c := range []struct {
				max  uint64
				want string
			}{{tc.steps - 1, tc.errLast}, {tc.steps / 2, tc.errMid}} {
				_, err := RunSource(tc.src, Options{Quantum: tc.quantum, MaxSteps: c.max})
				want := "minilang: runtime error in " + c.want + ": " + limit
				if err == nil || err.Error() != want {
					t.Errorf("MaxSteps %d: err = %v, want %q", c.max, err, want)
				}
			}
		})
	}
}

// TestAddressOverflowIsRuntimeError covers heap accesses whose end address
// overflows int64: each must fail with a RuntimeError, not pass the bounds
// check and panic on the heap index.
func TestAddressOverflowIsRuntimeError(t *testing.T) {
	cases := map[string]string{
		"load":     `fn main() { var p = 0; print(p[9223372036854775807]); }`,
		"store":    `fn main() { var p = 0; p[9223372036854775807] = 1; }`,
		"base":     `fn main() { var x = 9223372036854775807; print(x[0]); }`,
		"sysread":  `fn main() { sysread(9223372036854775806, 4); }`,
		"syswrite": `fn main() { syswrite(9223372036854775806, 4); }`,
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic: %v", r)
				}
			}()
			_, err := RunSource(src, Options{})
			var rt *RuntimeError
			if !errors.As(err, &rt) || !strings.Contains(rt.Msg, "invalid memory access") {
				t.Fatalf("err = %v, want invalid memory access RuntimeError", err)
			}
		})
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"no main", `fn f() {}`, "no 'main'"},
		{"main with params", `fn main(x) {}`, "no parameters"},
		{"dup function", `fn f() {} fn f() {} fn main() {}`, "redeclared"},
		{"dup global", `global g = 1; global g = 2; fn main() {}`, "redeclared"},
		{"builtin shadow", `fn alloc(n) {} fn main() {}`, "shadows a builtin"},
		{"undeclared var", `fn main() { x = 1; }`, "undeclared"},
		{"unknown fn", `fn main() { nope(); }`, "unknown function"},
		{"arity", `fn f(a) {} fn main() { f(); }`, "want 1"},
		{"builtin arity", `fn main() { alloc(1, 2); }`, "want 1"},
		{"spawn unknown", `fn main() { spawn nope(); }`, "unknown function"},
		{"assign array global", `global a[4]; fn main() { a = 3; }`, "cannot assign to array global"},
		{"string outside print", `fn main() { var x = "no"; }`, "only allowed"},
		{"string mid print", `fn main() { print(1, "no"); }`, "first argument"},
		{"dup local", `fn main() { var x = 1; var x = 2; }`, "redeclared"},
		{"dup param", `fn f(a, a) {} fn main() {}`, "redeclared"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compile(tc.src)
			if err == nil {
				t.Fatal("Compile succeeded, want error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestBlockScoping(t *testing.T) {
	res := run(t, `
fn main() {
	var x = 1;
	{
		var y = 10;
		x = x + y;
	}
	{
		var y = 100;
		x = x + y;
	}
	print(x);
}`)
	wantOutput(t, res, "111")
}

func TestTraceEventsForHeapAccesses(t *testing.T) {
	res := run(t, `
global g = 0;
fn main() {
	g = 5;        // one write
	var x = g;    // one read
	var a = alloc(3);
	a[0] = x;     // one write
	sysread(a, 3);
	syswrite(a, 2);
	print(a[0]);  // one read
}`)
	var reads, writes, k2u, u2k, calls, rets int
	for _, ev := range res.Trace.Events {
		switch ev.Kind {
		case trace.KindRead:
			reads++
		case trace.KindWrite:
			writes++
		case trace.KindKernelToUser:
			k2u++
		case trace.KindUserToKernel:
			u2k++
		case trace.KindCall:
			calls++
		case trace.KindReturn:
			rets++
		}
	}
	if reads != 2 || writes != 2 {
		t.Errorf("reads=%d writes=%d, want 2 and 2", reads, writes)
	}
	if k2u != 1 || u2k != 1 {
		t.Errorf("kernelToUser=%d userToKernel=%d, want 1 and 1", k2u, u2k)
	}
	if calls != 1 || rets != 1 {
		t.Errorf("calls=%d returns=%d, want 1 and 1 (only main)", calls, rets)
	}
}

func TestBasicBlockCounting(t *testing.T) {
	// A loop body executes once per iteration; doubling the trip count
	// should roughly double the executed basic blocks.
	src := func(n int) string {
		return `
fn main() {
	var s = 0;
	for (var i = 0; i < ` + itoa(n) + `; i = i + 1) {
		s = s + i;
	}
	print(s);
}`
	}
	small, err := RunSource(src(100), Options{})
	if err != nil {
		t.Fatal(err)
	}
	large, err := RunSource(src(200), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(large.BasicBlocks) / float64(small.BasicBlocks)
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("bb ratio = %.2f (%d vs %d), want ~2", ratio, large.BasicBlocks, small.BasicBlocks)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

func TestDeterminism(t *testing.T) {
	src := `
global c = 0;
global s = 0;
fn w(n) {
	for (var i = 0; i < n; i = i + 1) {
		wait(s);
		c = c + i;
		signal(s);
	}
}
fn main() {
	s = sem(1);
	spawn w(50);
	spawn w(50);
	w(50);
	print(c);
}`
	a, err := RunSource(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSource(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Trace.Events) != len(b.Trace.Events) {
		t.Fatalf("runs differ in length: %d vs %d", len(a.Trace.Events), len(b.Trace.Events))
	}
	for i := range a.Trace.Events {
		if a.Trace.Events[i] != b.Trace.Events[i] {
			t.Fatalf("runs diverge at event %d: %v vs %v", i, a.Trace.Events[i], b.Trace.Events[i])
		}
	}
}

func TestQuantumChangesInterleavingNotResults(t *testing.T) {
	src := `
global acc[1];
global mutex = 0;
fn inc(n) {
	for (var i = 0; i < n; i = i + 1) {
		wait(mutex);
		acc[0] = acc[0] + 1;
		signal(mutex);
	}
}
fn main() {
	mutex = sem(1);
	spawn inc(20);
	inc(20);
	while (acc[0] < 40) {
	}
	print(acc[0]);
}`
	for _, q := range []int{1, 3, 10, 1000} {
		res, err := RunSource(src, Options{Quantum: q})
		if err != nil {
			t.Fatalf("quantum %d: %v", q, err)
		}
		if len(res.Output) != 1 || res.Output[0] != "40" {
			t.Errorf("quantum %d: output %v, want [40]", q, res.Output)
		}
	}
}

func TestDisassemble(t *testing.T) {
	cp, err := Compile(`fn main() { var x = 1; if (x) { print(x); } }`)
	if err != nil {
		t.Fatal(err)
	}
	dis := cp.Funcs[cp.FuncByName["main"]].Disassemble(cp)
	for _, want := range []string{"fn main", "const", "jz", "print"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %q:\n%s", want, dis)
		}
	}
}
