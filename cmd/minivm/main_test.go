package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aprof/internal/trace"
	"aprof/internal/vm"
)

func writeProgram(t *testing.T, name, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestVetCleanProgram(t *testing.T) {
	path := writeProgram(t, "clean.ml", `
fn main() {
	var n = 3;
	print(n);
}
`)
	var out strings.Builder
	if code := vet([]string{path}, &out); code != 0 {
		t.Fatalf("exit %d on clean program, output:\n%s", code, out.String())
	}
	if out.Len() != 0 {
		t.Fatalf("unexpected output for clean program:\n%s", out.String())
	}
}

func TestVetReportsDiagnostics(t *testing.T) {
	path := writeProgram(t, "dirty.ml", `
fn main() {
	var unused = 1;
	if (1 < 0) {
		print(9);
	}
	print(0);
}
`)
	var out strings.Builder
	if code := vet([]string{path}, &out); code != 1 {
		t.Fatalf("exit %d on program with findings, output:\n%s", code, out.String())
	}
	got := out.String()
	for _, want := range []string{path + ":", "V002", "V005"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestVetReportsSyntaxErrorWithPosition(t *testing.T) {
	path := writeProgram(t, "broken.ml", "fn main( {\n")
	var out strings.Builder
	if code := vet([]string{path}, &out); code != 1 {
		t.Fatalf("exit %d on unparsable program, output:\n%s", code, out.String())
	}
	got := out.String()
	if !strings.Contains(got, path+":1:") || !strings.Contains(got, "error:") {
		t.Errorf("syntax error not reported with file:line position:\n%s", got)
	}
}

func TestVetMissingFile(t *testing.T) {
	var out strings.Builder
	if code := vet([]string{filepath.Join(t.TempDir(), "absent.ml")}, &out); code != 2 {
		t.Fatalf("exit %d for missing file, want 2", code)
	}
}

func TestVetNoArgs(t *testing.T) {
	var out strings.Builder
	if code := vet(nil, &out); code != 2 {
		t.Fatalf("exit %d for no arguments, want 2", code)
	}
}

func TestEffectsReportsBlocks(t *testing.T) {
	path := writeProgram(t, "kernel.ml", `
fn main() {
	var a = alloc(4);
	var s = a[0] + a[1] + a[0];
	a[2] = s;
	a[3] = s;
	print(s);
}
`)
	var out, errOut strings.Builder
	if code := effects([]string{path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut.String())
	}
	got := out.String()
	for _, want := range []string{"fn main", "steps=33", "R  1+l0@1", "W  3+l0@1"} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q:\n%s", want, got)
		}
	}
}

func TestEffectsWarningsDoNotGate(t *testing.T) {
	// A program with both a lint finding (V002) and a V007 dead store must
	// still produce a full report and exit 0: diagnostics are advisory.
	path := writeProgram(t, "warny.ml", `
fn main() {
	var unused = 1;
	var a = alloc(2);
	a[0] = 1;
	a[0] = 2;
	print(a[0]);
}
`)
	var out, errOut strings.Builder
	if code := effects([]string{path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d on program with warnings, stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "fn main") {
		t.Errorf("report missing despite warnings:\n%s", out.String())
	}
	diag := errOut.String()
	for _, want := range []string{"V002", "V007"} {
		if !strings.Contains(diag, want) {
			t.Errorf("stderr missing %q:\n%s", want, diag)
		}
	}
}

func TestEffectsHardErrorFails(t *testing.T) {
	path := writeProgram(t, "broken.ml", "fn main( {\n")
	var out, errOut strings.Builder
	if code := effects([]string{path}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d on unparsable program, want 1", code)
	}
	if !strings.Contains(errOut.String(), "error:") {
		t.Errorf("hard error not reported:\n%s", errOut.String())
	}
}

func TestEffectsNoArgs(t *testing.T) {
	var out, errOut strings.Builder
	if code := effects(nil, &out, &errOut); code != 2 {
		t.Fatalf("exit %d for no arguments, want 2", code)
	}
}

// TestTraceDefaultFormatIsAPT2 pins -trace-format's default to the
// checksummed APT2 encoding.
func TestTraceDefaultFormatIsAPT2(t *testing.T) {
	res, err := vm.RunSource(`
fn main() {
	var s = 0;
	for (var i = 0; i < 5; i = i + 1) {
		s = s + i;
	}
	print(s);
}
`, vm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "out.tr")
	if err := trace.WriteFile(path, defaultTraceFormat, res.Trace); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("APT2")) {
		t.Fatalf("default trace starts %.4q, want the APT2 magic", data)
	}
}
