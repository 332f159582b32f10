// Command aprof profiles a MiniLang program or a saved execution trace with
// the input-sensitive profiler and prints per-routine empirical cost
// information.
//
// Usage:
//
//	aprof [-metric drms|rms|external-only] [-top N] [-fit] [-plots] program.ml
//	aprof -trace trace.bin [flags]
//
// The metric flag selects which dynamic input sources the profiler
// recognizes: "drms" (thread and kernel input, the paper's metric), "rms"
// (plain aprof), or "external-only" (kernel input only).
//
// Observability: -progress prints a periodic progress line to stderr (never
// stdout, so piped profiles stay clean); -debug-addr serves live metrics,
// expvar and net/http/pprof over HTTP; -obs-summary writes a JSON metrics
// run summary, and with -json one is written next to the profile by default
// (<json>.obs.json).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"aprof"
	"aprof/internal/obs"
	"aprof/internal/trace"
)

func main() {
	var (
		traceIn  = flag.String("trace", "", "profile this saved trace instead of running a program")
		format   = flag.String("format", "binary", "trace format of -trace: binary or text")
		metric   = flag.String("metric", "drms", "input metric: drms, rms, or external-only")
		topN     = flag.Int("top", 0, "report only the N most expensive routines (0 = all)")
		fitFlag  = flag.Bool("fit", false, "fit empirical cost functions")
		plots    = flag.Bool("plots", false, "print worst-case cost plot points")
		routine  = flag.String("routine", "", "print only this routine's cost plot and fit")
		quantum  = flag.Int("quantum", 0, "VM scheduling quantum in basic blocks")
		jsonOut  = flag.String("json", "", "write the profiles as JSON to this file")
		ascii    = flag.Bool("ascii", false, "with -routine: render the cost plot as an ASCII chart")
		optimize = flag.Bool("optimize", false, "optimize the program's bytecode before execution")
		contexts = flag.Int("contexts", 0, "report the N hottest calling contexts (enables context-sensitive profiling)")
		htmlOut  = flag.String("html", "", "write a self-contained HTML report to this file")

		lenient     = flag.Bool("lenient", false, "with -trace: skip corrupt APT2 frames instead of aborting, reporting what was lost")
		faultPolicy = flag.String("fault-policy", "strict", "malformed-event handling: strict, skip, or count")
		checkpoint  = flag.String("checkpoint", "", "with -trace: periodically write a resumable checkpoint to this file")
		ckptEvery   = flag.Int("checkpoint-every", 0, "batches between checkpoints (default 16)")
		resume      = flag.String("resume", "", "with -trace: resume an interrupted run from this checkpoint file")

		progress  = flag.Bool("progress", false, "print a periodic progress line to stderr")
		debugAddr = flag.String("debug-addr", "", "serve live metrics, expvar and pprof on this address (e.g. localhost:6060)")
		obsOut    = flag.String("obs-summary", "", "write a JSON metrics run summary to this path (default <json>.obs.json when -json is set)")
	)
	flag.Parse()

	// The observability registry is created only when some surface will
	// consume it; a nil registry compiles the instrumentation to no-ops.
	summaryPath := *obsOut
	if summaryPath == "" && *jsonOut != "" {
		summaryPath = *jsonOut + ".obs.json"
	}
	var reg *obs.Registry
	if *progress || *debugAddr != "" || summaryPath != "" {
		reg = obs.NewRegistry()
	}
	start := time.Now()

	if *debugAddr != "" {
		srv, err := obs.ServeDebug(*debugAddr, reg)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "aprof: debug server on http://%s/debug/obs\n", srv.Addr())
	}
	if *progress {
		stop := obs.StartProgress(context.Background(), os.Stderr, 0, func() string {
			snap := reg.Snapshot()
			core := snap.Scope("core")
			return fmt.Sprintf("aprof: %s elapsed, %d events (%d dropped)",
				time.Since(start).Round(time.Millisecond),
				core.CounterSum("events_"), core.CounterSum("drops_"))
		})
		defer stop()
	}

	cfg, plotMetric, err := configFor(*metric)
	if err != nil {
		fatal(err)
	}
	if *contexts > 0 {
		cfg.ContextSensitive = true
	}
	cfg.FaultPolicy, err = aprof.ParseFaultPolicy(*faultPolicy)
	if err != nil {
		fatal(err)
	}
	cfg.Obs = reg

	var tr *aprof.Trace
	var ps *aprof.Profiles
	switch {
	case *traceIn != "":
		f, err := os.Open(*traceIn)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if *format == "text" {
			tr, err = trace.ReadText(f)
			if err != nil {
				fatal(err)
			}
		} else {
			// Binary traces are profiled in streaming mode: the file is
			// never materialized in memory. SIGINT/SIGTERM cancels the
			// stream; with -checkpoint set, the pipeline writes one final
			// checkpoint on the way out so the run is resumable.
			ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
			defer stop()
			opts := aprof.StreamOptions{
				Lenient:         *lenient,
				CheckpointPath:  *checkpoint,
				CheckpointEvery: *ckptEvery,
			}
			if *resume != "" {
				if opts.CheckpointPath == "" {
					// Keep checkpointing where we resumed from, so repeated
					// crashes keep making progress.
					opts.CheckpointPath = *resume
				}
				opts.FinalCheckpoint = true
				ps, err = aprof.ResumeTraceStream(ctx, f, *resume, cfg, opts)
			} else {
				opts.FinalCheckpoint = opts.CheckpointPath != ""
				ps, err = aprof.ProfileTraceStreamContext(ctx, f, cfg, opts)
			}
			if err != nil {
				if ctx.Err() != nil {
					stop() // restore default handling: a second ^C kills hard
					if opts.CheckpointPath != "" {
						fmt.Fprintf(os.Stderr, "aprof: interrupted; resume with -trace %s -resume %s\n",
							*traceIn, opts.CheckpointPath)
					} else {
						fmt.Fprintln(os.Stderr, "aprof: interrupted")
					}
					os.Exit(130)
				}
				fatal(err)
			}
			reportLoss(ps)
		}
	case flag.NArg() == 1:
		src, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		res, err := aprof.RunProgram(string(src), aprof.VMOptions{Quantum: *quantum, Stdout: os.Stderr, Optimize: *optimize})
		if err != nil {
			fatal(err)
		}
		tr = res.Trace
	default:
		fmt.Fprintln(os.Stderr, "usage: aprof [flags] program.ml   or   aprof -trace trace.bin [flags]")
		flag.Usage()
		os.Exit(2)
	}

	if ps == nil {
		var err error
		ps, err = aprof.ProfileTrace(tr, cfg)
		if err != nil {
			fatal(err)
		}
	}

	if *htmlOut != "" {
		f, err := os.Create(*htmlOut)
		if err != nil {
			fatal(err)
		}
		if err := aprof.WriteHTMLReport(f, ps, aprof.HTMLReportOptions{Title: "aprof-drms report"}); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fatal(err)
		}
		if err := aprof.WriteProfiles(f, ps); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	if reg != nil && summaryPath != "" {
		summary := obs.NewRunSummary(reg, time.Since(start).Milliseconds())
		if err := summary.WriteFile(summaryPath); err != nil {
			fatal(err)
		}
	}

	if *routine != "" {
		p := ps.Routine(*routine)
		if p == nil {
			fatal(fmt.Errorf("no profile for routine %q", *routine))
		}
		fmt.Printf("routine %s: %d calls, cost %d\n", *routine, p.Calls, p.TotalCost)
		if *ascii {
			chart, err := aprof.PlotCompareASCII(ps, *routine, aprof.PlotOptions{})
			if err != nil {
				fatal(err)
			}
			fmt.Print(chart)
		} else {
			fmt.Printf("plot [%s]: n -> max cost\n", plotMetric)
			for _, pt := range p.WorstCasePlot(plotMetric) {
				fmt.Printf("  %d\t%d\t(%d calls)\n", pt.N, pt.Cost, pt.Calls)
			}
		}
		if model, err := aprof.FitCost(ps, *routine, plotMetric); err == nil {
			fmt.Printf("fit: %s (exponent %.2f)\n", model.Formula, model.Exponent)
		}
		return
	}

	fmt.Print(aprof.Report(ps, aprof.ReportOptions{
		TopN:     *topN,
		Metric:   plotMetric,
		Fit:      *fitFlag,
		Plots:    *plots,
		Contexts: *contexts,
	}))
}

func configFor(metric string) (aprof.Config, aprof.Metric, error) {
	switch strings.ToLower(metric) {
	case "drms":
		return aprof.DefaultConfig(), aprof.DRMS, nil
	case "rms":
		return aprof.RMSOnlyConfig(), aprof.RMS, nil
	case "external-only", "external":
		return aprof.ExternalOnlyConfig(), aprof.DRMS, nil
	default:
		return aprof.Config{}, 0, fmt.Errorf("unknown metric %q (want drms, rms, or external-only)", metric)
	}
}

// reportLoss prints to stderr what a lenient or non-strict run lost, so
// degraded results are never mistaken for complete ones.
func reportLoss(ps *aprof.Profiles) {
	if c := ps.Corruption; c.FramesDropped > 0 || c.EventsDropped > 0 || c.Truncated {
		fmt.Fprintf(os.Stderr, "aprof: trace corruption: %d frames / %d events dropped, %d bytes skipped",
			c.FramesDropped, c.EventsDropped, c.BytesSkipped)
		if c.Truncated {
			fmt.Fprint(os.Stderr, " (trace truncated)")
		}
		fmt.Fprintln(os.Stderr)
		for _, e := range c.Errors {
			fmt.Fprintln(os.Stderr, "aprof:   ", e)
		}
	}
	if !ps.Drops.IsZero() {
		fmt.Fprintf(os.Stderr, "aprof: %d malformed events dropped (policy count): %+v\n", ps.Drops.Total(), ps.Drops)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "aprof:", err)
	os.Exit(1)
}
