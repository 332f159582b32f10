// Command minivm runs a MiniLang program under the instrumented virtual
// machine, printing the program's output and optionally saving the emitted
// execution trace for later profiling with cmd/aprof.
//
// Usage:
//
//	minivm [-quantum N] [-max-steps N] [-trace FILE] [-trace-format binary2|binary|text] [-stats|-fmt|-disasm] program.ml
//	minivm vet program.ml...
//	minivm effects program.ml...
//
// The vet subcommand runs the static-analysis pipeline (parse, lint,
// compile, bytecode verification, optimize, re-verification, effect
// analysis) without executing the program, printing positioned
// file:line:col diagnostics. It exits 1 when any file has findings.
// Importing the analysis package also wires the bytecode verifier into
// every compile the run mode performs.
//
// The effects subcommand prints the per-function block/cost/effect report
// of the CFG effect analysis: each basic block's static step cost and its
// memory accesses with symbolic addresses, per VM sub-block. Diagnostics
// (including V007 dead stores) go to stderr; the report is informational,
// so only hard errors fail.
//
// -trace writes checksummed APT2 (binary2) by default; binary selects the
// legacy unframed APT1 encoding and text the line-oriented one.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"aprof/internal/trace"
	"aprof/internal/vm"
	"aprof/internal/vm/analysis"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "vet" {
		os.Exit(vet(os.Args[2:], os.Stdout))
	}
	if len(os.Args) > 1 && os.Args[1] == "effects" {
		os.Exit(effects(os.Args[2:], os.Stdout, os.Stderr))
	}
	var (
		quantum  = flag.Int("quantum", 0, "basic blocks per scheduling slice (0 = default)")
		maxSteps = flag.Uint64("max-steps", 0, "instruction limit (0 = default)")
		traceOut = flag.String("trace", "", "write the execution trace to this file")
		traceFmt = flag.String("trace-format", defaultTraceFormat, "trace format: binary2 (checksummed APT2), binary (APT1) or text")
		stats    = flag.Bool("stats", false, "print execution statistics")
		optimize = flag.Bool("optimize", false, "run the bytecode optimizer before execution")
		format   = flag.Bool("fmt", false, "format the program to stdout instead of running it")
		disasm   = flag.Bool("disasm", false, "print the compiled bytecode instead of running")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: minivm [flags] program.ml")
		fmt.Fprintln(os.Stderr, "       minivm vet program.ml...")
		fmt.Fprintln(os.Stderr, "       minivm effects program.ml...")
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	if *format {
		out, err := vm.Format(string(src))
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
		return
	}
	if *disasm {
		cp, err := vm.Compile(string(src))
		if err != nil {
			fatal(err)
		}
		if *optimize {
			if _, err := cp.Optimize(); err != nil {
				fatal(err)
			}
		}
		for _, fn := range cp.Funcs {
			fmt.Print(fn.Disassemble(cp))
		}
		return
	}
	res, err := vm.RunSource(string(src), vm.Options{
		Quantum:  *quantum,
		MaxSteps: *maxSteps,
		Stdout:   os.Stdout,
		Optimize: *optimize,
	})
	if err != nil {
		fatal(err)
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "threads: %d  steps: %d  basic blocks: %d  trace events: %d\n",
			res.Threads, res.Steps, res.BasicBlocks, res.Trace.Len())
	}
	if *traceOut != "" {
		if err := trace.WriteFile(*traceOut, *traceFmt, res.Trace); err != nil {
			fatal(err)
		}
	}
}

// defaultTraceFormat is -trace-format's default: the framed, checksummed
// encoding the daemon and the committed fixtures use.
const defaultTraceFormat = "binary2"

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "minivm:", err)
	os.Exit(1)
}

// vet statically checks each file and prints positioned diagnostics. The
// exit status is 0 when every file is clean, 1 when any file has findings
// or hard errors, 2 on usage errors.
func vet(files []string, out io.Writer) int {
	if len(files) == 0 {
		fmt.Fprintln(os.Stderr, "usage: minivm vet program.ml...")
		return 2
	}
	exit := 0
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			fmt.Fprintln(os.Stderr, "minivm: vet:", err)
			return 2
		}
		diags, err := analysis.Check(string(src))
		for _, d := range diags {
			fmt.Fprintf(out, "%s:%s\n", file, d)
			exit = 1
		}
		if err != nil {
			printHardError(out, file, err)
			exit = 1
		}
	}
	return exit
}

// effects prints the per-function effect-analysis report for each file.
// Diagnostics (including V007 dead stores the analysis itself finds) go to
// errOut; they do not affect the exit status — the report is informational
// and a program with warnings still gets its full report. Only hard errors
// (syntax, compile, verifier) exit 1; usage errors exit 2.
func effects(files []string, out, errOut io.Writer) int {
	if len(files) == 0 {
		fmt.Fprintln(os.Stderr, "usage: minivm effects program.ml...")
		return 2
	}
	exit := 0
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			fmt.Fprintln(os.Stderr, "minivm: effects:", err)
			return 2
		}
		pe, diags, err := analysis.Effects(string(src))
		for _, d := range diags {
			fmt.Fprintf(errOut, "%s:%s\n", file, d)
		}
		if err != nil {
			printHardError(errOut, file, err)
			exit = 1
			continue
		}
		if len(files) > 1 {
			fmt.Fprintf(out, "== %s\n", file)
		}
		fmt.Fprint(out, pe.Report())
	}
	return exit
}

// printHardError renders a hard failure (syntax, compile, verifier) with
// the file prepended to the position where one is known.
func printHardError(out io.Writer, file string, err error) {
	switch e := err.(type) {
	case *vm.SyntaxError:
		fmt.Fprintf(out, "%s:%s: error: %s\n", file, e.Pos, e.Msg)
	default:
		fmt.Fprintf(out, "%s: error: %v\n", file, err)
	}
}
