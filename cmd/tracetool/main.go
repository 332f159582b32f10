// Command tracetool inspects and manipulates saved execution traces.
//
// Usage:
//
//	tracetool stats trace.bin                 # event/thread/routine statistics
//	tracetool cat trace.bin                   # dump as text
//	tracetool convert -to text in.bin out.tr  # convert between formats
//	tracetool reinterleave -seed 7 in out     # schedule-perturbed copy
//	tracetool slice -routine scan in out      # sub-trace of one routine
//	tracetool validate trace.bin              # structural checks
//
// Formats are detected from the file contents (binary traces start with the
// "APT2" or the legacy "APT1" magic). Commands that write a trace write
// checksummed APT2 (binary2) unless told otherwise.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"aprof/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	args := os.Args[2:]
	var err error
	switch cmd {
	case "stats":
		err = cmdStats(args, os.Stdout)
	case "cat":
		err = cmdCat(args, os.Stdout)
	case "convert":
		err = cmdConvert(args)
	case "reinterleave":
		err = cmdReinterleave(args)
	case "slice":
		err = cmdSlice(args)
	case "validate":
		err = cmdValidate(args, os.Stdout)
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "tracetool: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracetool:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  tracetool stats FILE
  tracetool cat FILE
  tracetool convert [-to binary2|binary|text] IN OUT
  tracetool reinterleave [-seed N] [-window N] [-sync] IN OUT
  tracetool slice [-threads 1,2] [-routine NAME] [-from T] [-to T] IN OUT
  tracetool validate FILE`)
}

// readTrace loads a trace, sniffing the format.
func readTrace(path string) (*trace.Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if bytes.HasPrefix(data, []byte("APT1")) || bytes.HasPrefix(data, []byte("APT2")) {
		return trace.ReadBinary(bytes.NewReader(data))
	}
	return trace.ReadText(bytes.NewReader(data))
}

func cmdStats(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("stats: want exactly one trace file")
	}
	tr, err := readTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	return printStats(w, tr)
}

// printStats renders the statistics of a trace.
func printStats(w io.Writer, tr *trace.Trace) error {
	kinds := make(map[trace.Kind]int)
	perThread := make(map[trace.ThreadID]int)
	var cells uint64
	maxDepth := 0
	depth := make(map[trace.ThreadID]int)
	for i := range tr.Events {
		ev := &tr.Events[i]
		kinds[ev.Kind]++
		if ev.Kind != trace.KindSwitchThread {
			perThread[ev.Thread]++
		}
		if ev.IsMemory() {
			cells += uint64(ev.Size)
		}
		switch ev.Kind {
		case trace.KindCall:
			depth[ev.Thread]++
			if depth[ev.Thread] > maxDepth {
				maxDepth = depth[ev.Thread]
			}
		case trace.KindReturn:
			depth[ev.Thread]--
		}
	}
	fmt.Fprintf(w, "events:    %d\n", tr.Len())
	fmt.Fprintf(w, "routines:  %d\n", tr.Symbols.Len())
	fmt.Fprintf(w, "threads:   %d\n", len(perThread))
	fmt.Fprintf(w, "cells:     %d accessed (%d distinct)\n", cells, tr.MemoryFootprint())
	fmt.Fprintf(w, "max depth: %d\n", maxDepth)
	fmt.Fprintln(w, "by kind:")
	for k := trace.KindCall; k <= trace.KindRelease; k++ {
		if kinds[k] > 0 {
			fmt.Fprintf(w, "  %-14s %d\n", k.String(), kinds[k])
		}
	}
	ids := make([]trace.ThreadID, 0, len(perThread))
	for id := range perThread {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	fmt.Fprintln(w, "by thread:")
	for _, id := range ids {
		fmt.Fprintf(w, "  t%-3d %d\n", id, perThread[id])
	}
	return nil
}

func cmdCat(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("cat", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("cat: want exactly one trace file")
	}
	tr, err := readTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	return trace.WriteText(w, tr)
}

func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ContinueOnError)
	to := fs.String("to", "binary2", "output format: binary2 (checksummed APT2), binary (APT1), or text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("convert: want IN and OUT files")
	}
	tr, err := readTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	return trace.WriteFile(fs.Arg(1), *to, tr)
}

func cmdReinterleave(args []string) error {
	fs := flag.NewFlagSet("reinterleave", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "perturbation seed")
	window := fs.Int("window", 8, "perturbation window (events)")
	sync := fs.Bool("sync", true, "respect semaphore synchronization")
	format := fs.String("to", "binary2", "output format: binary2 (checksummed APT2), binary (APT1), or text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("reinterleave: want IN and OUT files")
	}
	tr, err := readTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	var out *trace.Trace
	if *sync {
		out = trace.ReinterleaveSync(tr, *seed, *window)
	} else {
		out = trace.ReinterleaveWindow(tr, *seed, *window)
	}
	return trace.WriteFile(fs.Arg(1), *format, out)
}

func cmdSlice(args []string) error {
	fs := flag.NewFlagSet("slice", flag.ContinueOnError)
	threads := fs.String("threads", "", "comma-separated thread ids to keep")
	routine := fs.String("routine", "", "keep only activations of this routine")
	from := fs.Uint64("from", 0, "window start time")
	to := fs.Uint64("to", math.MaxUint64, "window end time")
	format := fs.String("to-format", "binary2", "output format: binary2 (checksummed APT2), binary (APT1), or text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("slice: want IN and OUT files")
	}
	tr, err := readTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	if *from > 0 || *to < math.MaxUint64 {
		tr = trace.TimeWindow(tr, *from, *to)
	}
	if *threads != "" {
		var keep []trace.ThreadID
		for _, part := range strings.Split(*threads, ",") {
			id, err := strconv.ParseInt(strings.TrimSpace(part), 10, 32)
			if err != nil {
				return fmt.Errorf("slice: thread id %q: %w", part, err)
			}
			keep = append(keep, trace.ThreadID(id))
		}
		tr = trace.FilterThreads(tr, keep...)
	}
	if *routine != "" {
		tr = trace.FilterRoutine(tr, tr.Symbols, *routine)
	}
	return trace.WriteFile(fs.Arg(1), *format, tr)
}

func cmdValidate(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("validate", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("validate: want exactly one trace file")
	}
	tr, err := readTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	if err := tr.Validate(); err != nil {
		return err
	}
	fmt.Fprintf(w, "ok: %d events, %d routines, %d threads\n",
		tr.Len(), tr.Symbols.Len(), len(tr.Threads()))
	return nil
}
