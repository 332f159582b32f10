package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aprof/internal/trace"
)

func writeSample(t *testing.T, dir string) string {
	t.Helper()
	b := trace.NewBuilder()
	t1 := b.Thread(1)
	t2 := b.Thread(2)
	t1.Call("main")
	t2.Call("worker")
	for i := 0; i < 10; i++ {
		t1.Write1(trace.Addr(i))
		t2.Read1(trace.Addr(i))
		t1.SysRead(100, 4)
	}
	t1.Call("inner")
	t1.Ret()
	t1.Ret()
	t2.Ret()
	tr := b.Trace()

	path := filepath.Join(dir, "sample.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trace.WriteBinary(f, tr); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestStats(t *testing.T) {
	dir := t.TempDir()
	path := writeSample(t, dir)
	var buf bytes.Buffer
	if err := cmdStats([]string{path}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"events:", "routines:  3", "threads:   2", "max depth: 2", "kernelToUser", "by thread:"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}
}

func TestCatAndConvertRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := writeSample(t, dir)

	var text bytes.Buffer
	if err := cmdCat([]string{path}, &text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "routine 0 main") {
		t.Errorf("cat output missing routine header:\n%.200s", text.String())
	}

	// binary -> text -> binary keeps the trace identical.
	textPath := filepath.Join(dir, "sample.tr")
	if err := cmdConvert([]string{"-to", "text", path, textPath}); err != nil {
		t.Fatal(err)
	}
	binPath := filepath.Join(dir, "sample2.bin")
	if err := cmdConvert([]string{"-to", "binary", textPath, binPath}); err != nil {
		t.Fatal(err)
	}
	a, err := readTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := readTrace(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("round trip changed event count: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("round trip changed event %d", i)
		}
	}
}

func TestValidateAndReinterleave(t *testing.T) {
	dir := t.TempDir()
	path := writeSample(t, dir)

	var buf bytes.Buffer
	if err := cmdValidate([]string{path}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ok:") {
		t.Errorf("validate output = %q", buf.String())
	}

	out := filepath.Join(dir, "re.bin")
	if err := cmdReinterleave([]string{"-seed", "3", out, out}); err == nil {
		// Same in/out path is allowed but must still produce a valid trace;
		// the interesting check is below with distinct paths.
		_ = err
	}
	if err := cmdReinterleave([]string{"-seed", "3", path, out}); err != nil {
		t.Fatal(err)
	}
	re, err := readTrace(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Validate(); err != nil {
		t.Fatalf("reinterleaved trace invalid: %v", err)
	}
	orig, err := readTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if nonSwitch(orig) != nonSwitch(re) {
		t.Errorf("reinterleave changed event count: %d vs %d", nonSwitch(orig), nonSwitch(re))
	}
}

func TestErrors(t *testing.T) {
	if err := cmdStats(nil, &bytes.Buffer{}); err == nil {
		t.Error("stats with no file accepted")
	}
	if err := cmdStats([]string{"/nonexistent/file"}, &bytes.Buffer{}); err == nil {
		t.Error("stats of missing file accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad")
	os.WriteFile(bad, []byte("not a trace @@@"), 0o644)
	if err := cmdValidate([]string{bad}, &bytes.Buffer{}); err == nil {
		t.Error("validate of garbage accepted")
	}
	if err := cmdConvert([]string{"-to", "nonsense", bad, bad}); err == nil {
		t.Error("convert to unknown format accepted")
	}
}

func TestSlice(t *testing.T) {
	dir := t.TempDir()
	path := writeSample(t, dir)
	out := filepath.Join(dir, "slice.bin")

	// Thread slice.
	if err := cmdSlice([]string{"-threads", "1", path, out}); err != nil {
		t.Fatal(err)
	}
	tr, err := readTrace(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range tr.Events {
		if ev.Thread != 1 {
			t.Fatalf("thread %d survived -threads 1", ev.Thread)
		}
	}

	// Routine slice.
	if err := cmdSlice([]string{"-routine", "inner", path, out}); err != nil {
		t.Fatal(err)
	}
	tr, err = readTrace(out)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	for _, ev := range tr.Events {
		if ev.Kind == trace.KindCall {
			calls++
			if tr.Symbols.Name(ev.Routine) != "inner" {
				t.Fatalf("foreign routine in slice: %s", tr.Symbols.Name(ev.Routine))
			}
		}
	}
	if calls != 1 {
		t.Fatalf("slice has %d inner calls, want 1", calls)
	}

	// Window slice must stay valid.
	if err := cmdSlice([]string{"-from", "3", "-to", "20", path, out}); err != nil {
		t.Fatal(err)
	}
	tr, err = readTrace(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("window slice invalid: %v", err)
	}

	// Bad thread list.
	if err := cmdSlice([]string{"-threads", "x", path, out}); err == nil {
		t.Error("bad thread id accepted")
	}
}

// TestWritersDefaultToAPT2 pins the default output format of every command
// that writes a trace to checksummed APT2, and checks the copy reads back
// with the same events apart from thread switches (reinterleave moves
// those).
func TestWritersDefaultToAPT2(t *testing.T) {
	dir := t.TempDir()
	path := writeSample(t, dir)
	in, err := readTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		run  func(out string) error
	}{
		{"convert", func(out string) error { return cmdConvert([]string{path, out}) }},
		{"reinterleave", func(out string) error { return cmdReinterleave([]string{"-window", "1", path, out}) }},
		{"slice", func(out string) error { return cmdSlice([]string{path, out}) }},
	} {
		out := filepath.Join(dir, tc.name+".out")
		if err := tc.run(out); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, []byte("APT2")) {
			t.Fatalf("%s: output starts %.4q, want the APT2 magic", tc.name, data)
		}
		got, err := readTrace(out)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if g, w := nonSwitch(got), nonSwitch(in); g != w {
			t.Fatalf("%s: %d events besides thread switches, want %d", tc.name, g, w)
		}
	}
}

func nonSwitch(tr *trace.Trace) int {
	n := 0
	for _, ev := range tr.Events {
		if ev.Kind != trace.KindSwitchThread {
			n++
		}
	}
	return n
}
