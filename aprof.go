// Package aprof is an input-sensitive profiler implementing the dynamic
// read memory size (drms) metric of "Estimating the Empirical Cost Function
// of Routines with Dynamic Workloads" (CGO 2014): for every routine
// activation it estimates the size of the input the activation actually
// operated on — including *dynamic* input produced by other threads through
// shared memory and by the OS kernel through system calls — and relates the
// activation's cost to that size, yielding per-routine empirical cost
// functions.
//
// The package profiles execution traces (see NewTraceBuilder for
// programmatic construction) and MiniLang programs executed by the
// repository's instrumented virtual machine (see ProfileProgram), which
// substitutes for the dynamic binary instrumentation the original system
// obtained from Valgrind.
//
// Basic use:
//
//	b := aprof.NewTraceBuilder()
//	t1 := b.Thread(1)
//	t1.Call("worker")
//	t1.Read(0x1000, 64)
//	t1.Ret()
//	profiles, err := aprof.ProfileTrace(b.Trace(), aprof.DefaultConfig())
//	fmt.Print(aprof.Report(profiles, aprof.ReportOptions{}))
package aprof

import (
	"context"
	"fmt"
	"io"

	"aprof/internal/asciiplot"
	"aprof/internal/core"
	"aprof/internal/fit"
	"aprof/internal/htmlreport"
	"aprof/internal/metrics"
	"aprof/internal/obs"
	"aprof/internal/profio"
	"aprof/internal/trace"
	"aprof/internal/vm"
)

// Re-exported trace construction and profiling types. The aliases make the
// root package a complete surface: callers need no internal imports.
type (
	// Trace is a totally ordered execution trace.
	Trace = trace.Trace
	// TraceBuilder constructs merged traces programmatically.
	TraceBuilder = trace.Builder
	// ThreadBuilder issues one thread's operations into a TraceBuilder.
	ThreadBuilder = trace.ThreadBuilder
	// Addr is a memory cell address.
	Addr = trace.Addr
	// ThreadID identifies an application thread.
	ThreadID = trace.ThreadID
	// Event is one trace operation.
	Event = trace.Event
	// Config controls which dynamic input sources the profiler recognizes.
	Config = core.Config
	// Profiles is the result of a profiling run.
	Profiles = core.Profiles
	// Profile aggregates the activations of one routine.
	Profile = core.Profile
	// PlotPoint is one (input size, cost) point of a cost plot.
	PlotPoint = core.PlotPoint
	// CostStats aggregates the costs observed at one input size.
	CostStats = core.CostStats
	// ActivationRecord reports one completed activation (streaming use).
	ActivationRecord = core.ActivationRecord
	// Metric selects between the rms and drms input-size estimates.
	Metric = core.Metric
	// FaultPolicy selects how the profiler reacts to semantically malformed
	// events (strict | skip | count).
	FaultPolicy = core.FaultPolicy
	// DropStats counts events shed by a non-strict FaultPolicy or by
	// Limits, per category.
	DropStats = core.DropStats
	// Limits bounds the profiler's resource usage, degrading to sampling
	// instead of failing when exceeded.
	Limits = core.Limits
	// CorruptionError describes one corrupt region of a binary trace
	// stream.
	CorruptionError = trace.CorruptionError
	// CorruptionStats aggregates what a lenient trace reader skipped.
	CorruptionStats = trace.CorruptionStats
	// VMOptions configures MiniLang execution.
	VMOptions = vm.Options
	// VMResult is the outcome of a MiniLang run.
	VMResult = vm.Result
)

// FaultPolicy values.
const (
	// FaultStrict aborts the run on the first malformed event (default).
	FaultStrict = core.FaultStrict
	// FaultSkip drops malformed events silently.
	FaultSkip = core.FaultSkip
	// FaultCount drops malformed events and counts them in Profiles.Drops.
	FaultCount = core.FaultCount
)

// ParseFaultPolicy parses a policy name (strict, skip, count), as accepted
// by the -fault-policy flag of cmd/aprof.
func ParseFaultPolicy(s string) (FaultPolicy, error) { return core.ParseFaultPolicy(s) }

// Metric values.
const (
	// RMS is the read memory size of aprof (PLDI 2012): distinct cells
	// first accessed by a read.
	RMS = core.MetricRMS
	// DRMS is the dynamic read memory size of the CGO 2014 paper: rms plus
	// induced first-reads from other threads and from the kernel.
	DRMS = core.MetricDRMS
)

// DefaultConfig enables both dynamic input sources (full drms).
func DefaultConfig() Config { return core.DefaultConfig() }

// RMSOnlyConfig disables both dynamic input sources, reproducing plain
// aprof.
func RMSOnlyConfig() Config { return core.RMSOnlyConfig() }

// ExternalOnlyConfig recognizes only kernel-induced input (the Fig. 6b
// variant of the paper).
func ExternalOnlyConfig() Config { return Config{ExternalInput: true} }

// ContextSensitiveConfig is DefaultConfig plus calling-context-sensitive
// collection: activations are additionally keyed by their calling context,
// so one routine's cost plots can be separated per caller path (see
// Profiles.HotContexts and Profiles.Context).
func ContextSensitiveConfig() Config {
	cfg := core.DefaultConfig()
	cfg.ContextSensitive = true
	return cfg
}

// ContextProfile pairs a calling-context path with its merged profile.
type ContextProfile = core.ContextProfile

// ContextID identifies a calling-context node.
type ContextID = core.ContextID

// NewTraceBuilder returns an empty trace builder.
func NewTraceBuilder() *TraceBuilder { return trace.NewBuilder() }

// ProfileTrace profiles a merged execution trace.
func ProfileTrace(tr *Trace, cfg Config) (*Profiles, error) {
	return core.Run(tr, cfg)
}

// ProfileProgram compiles and executes a MiniLang program under the
// instrumented VM, then profiles the resulting trace. It returns both the
// profiles and the VM result (program output, executed basic blocks).
func ProfileProgram(src string, vmOpts VMOptions, cfg Config) (*Profiles, *VMResult, error) {
	res, err := vm.RunSource(src, vmOpts)
	if err != nil {
		return nil, nil, err
	}
	ps, err := core.Run(res.Trace, cfg)
	if err != nil {
		return nil, nil, err
	}
	return ps, res, nil
}

// RunProgram executes a MiniLang program under the instrumented VM without
// profiling (the trace is available in the result).
func RunProgram(src string, vmOpts VMOptions) (*VMResult, error) {
	return vm.RunSource(src, vmOpts)
}

// CostModel is a fitted empirical cost function of one routine.
type CostModel struct {
	// Routine is the routine name.
	Routine string
	// Metric is the input-size estimate the model was fitted against.
	Metric Metric
	// Formula renders the fitted model, e.g. "cost ~ 12 + 3.1*(n log n)".
	Formula string
	// ModelName is the asymptotic class, e.g. "n", "n log n", "n^2".
	ModelName string
	// R2 is the coefficient of determination of the fit.
	R2 float64
	// Exponent is the apparent power-law growth exponent from a log-log
	// regression (1 = linear, 2 = quadratic, ...).
	Exponent float64
	// RobustExponent is the Theil-Sen (outlier-resistant) estimate of the
	// same exponent; prefer it when costs come from wall-clock timing.
	RobustExponent float64
	// Points is the number of distinct input sizes fitted.
	Points int
}

// FitCost fits the named routine's worst-case cost plot under the chosen
// metric, returning the estimated empirical cost function.
func FitCost(ps *Profiles, routine string, metric Metric) (CostModel, error) {
	p := ps.Routine(routine)
	if p == nil {
		return CostModel{}, fmt.Errorf("aprof: no profile for routine %q", routine)
	}
	var pts []fit.Point
	for _, pp := range p.WorstCasePlot(metric) {
		pts = append(pts, fit.Point{N: float64(pp.N), Cost: float64(pp.Cost)})
	}
	best, err := fit.BestFit(pts)
	if err != nil {
		return CostModel{}, fmt.Errorf("aprof: routine %q: %w", routine, err)
	}
	model := CostModel{
		Routine:   routine,
		Metric:    metric,
		Formula:   best.String(),
		ModelName: best.Model.Name,
		R2:        best.R2,
		Points:    best.Points,
	}
	if exp, _, err := fit.PowerLaw(pts); err == nil {
		model.Exponent = exp
	}
	if robust, err := fit.RobustPowerLaw(pts); err == nil {
		model.RobustExponent = robust
	}
	return model, nil
}

// RoutineMetrics exposes the paper's evaluation metrics for every routine
// (profile richness, dynamic input volume, thread/external input shares).
type RoutineMetrics = metrics.Routine

// ComputeMetrics derives the per-routine evaluation metrics of a run.
func ComputeMetrics(ps *Profiles) []RoutineMetrics { return metrics.Compute(ps) }

// RunSummary is the run-level characterization of a profiling run.
type RunSummary = metrics.Summary

// Summarize derives the run-level dynamic-workload characterization.
func Summarize(ps *Profiles) RunSummary { return metrics.Summarize(ps) }

// WriteProfiles serializes profiles as JSON (the analogue of the report
// files the original aprof writes for aprof-plot).
func WriteProfiles(w io.Writer, ps *Profiles) error { return profio.Write(w, ps) }

// ReadProfiles deserializes profiles written by WriteProfiles. It reads r
// to EOF.
func ReadProfiles(r io.Reader) (*Profiles, error) { return profio.Read(r) }

// HTMLReportOptions controls WriteHTMLReport.
type HTMLReportOptions = htmlreport.Options

// WriteHTMLReport renders a self-contained HTML report (per-routine table,
// dynamic-workload characterization, fitted cost functions, inline SVG
// rms-vs-drms plots) for archiving next to the profile.
func WriteHTMLReport(w io.Writer, ps *Profiles, opts HTMLReportOptions) error {
	return htmlreport.Write(w, ps, opts)
}

// MergeRuns combines the profiles of several runs (possibly from different
// processes) into one, reconciling routines by name: profiling an
// application on several workloads and merging widens the observed
// input-size range, improving the cost-function fits.
func MergeRuns(runs ...*Profiles) *Profiles { return core.MergeRuns(runs...) }

// Job produces one trace for RunConcurrent. Use TraceJob and ProgramJob for
// the common cases, or write a Job that decodes a trace file.
type Job = core.Job

// TraceJob wraps an already-built trace as a Job.
func TraceJob(tr *Trace) Job {
	return func(context.Context) (*Trace, error) { return tr, nil }
}

// ProgramJob compiles and executes a MiniLang program under the
// instrumented VM when the job is scheduled, yielding its trace.
func ProgramJob(src string, vmOpts VMOptions) Job {
	return func(context.Context) (*Trace, error) {
		res, err := vm.RunSource(src, vmOpts)
		if err != nil {
			return nil, err
		}
		return res.Trace, nil
	}
}

// RunConcurrent profiles N independent traces or VM programs in parallel
// with a worker pool (workers <= 0 uses GOMAXPROCS) and merges the per-run
// profiles with MergeRuns in job order. Every trace is profiled by the
// exact sequential algorithm, so per-trace results are identical to
// ProfileTrace; only orchestration is parallel. The first error (lowest job
// index) cancels outstanding work and is returned.
func RunConcurrent(ctx context.Context, jobs []Job, cfg Config, workers int) (*Profiles, error) {
	return core.RunConcurrent(ctx, jobs, cfg, workers)
}

// StreamOptions tunes the staged pipeline behind ProfileTraceStream: batch
// size and channel depth of the decoder stage.
type StreamOptions = profio.StreamOptions

// Observability re-exports. Attach a registry via Config.Obs to have the
// profiler and streaming pipeline publish metrics into it; a nil registry
// disables the layer entirely (the per-event cost is a single branch).
type (
	// ObsRegistry collects the profiler's runtime metrics, grouped into
	// named scopes ("core", "shadow", "profio", "experiments").
	ObsRegistry = obs.Registry
	// ObsSnapshot is a deterministic point-in-time copy of a registry.
	ObsSnapshot = obs.Snapshot
	// ObsRunSummary is the JSON document aprof writes next to profiles:
	// the final metrics snapshot plus the run's wall time.
	ObsRunSummary = obs.RunSummary
)

// NewObsRegistry creates an empty metrics registry.
func NewObsRegistry() *ObsRegistry { return obs.NewRegistry() }

// NewObsRunSummary builds the observability run summary for a finished run.
func NewObsRunSummary(r *ObsRegistry, wallMS int64) ObsRunSummary {
	return obs.NewRunSummary(r, wallMS)
}

// ProfileTraceStream profiles a binary trace incrementally from r through a
// two-stage pipeline: a decoder goroutine parses and validates events into
// reusable batches handed to the (serial) profiler over a bounded channel,
// overlapping decode with profiling. Events are handled in exact trace
// order, so the result is identical to profiling the decoded trace with
// ProfileTrace; trace files far larger than memory can be profiled (the
// profiler's own state is bounded by the traced program's footprint, not by
// the trace length — especially with Config.MaxPointsPerProfile set).
func ProfileTraceStream(r io.Reader, cfg Config) (*Profiles, error) {
	return profio.ProfileStream(context.Background(), r, cfg, profio.StreamOptions{})
}

// ProfileTraceStreamContext is ProfileTraceStream with cancellation and
// pipeline tuning: cancelling ctx aborts the run between batches. With
// StreamOptions.Lenient the trace is decoded fault-tolerantly (corrupt APT2
// frames are skipped and accounted in Profiles.Corruption); with
// StreamOptions.CheckpointPath the run is durable and resumable via
// ResumeTraceStream.
func ProfileTraceStreamContext(ctx context.Context, r io.Reader, cfg Config, opts StreamOptions) (*Profiles, error) {
	return profio.ProfileStream(ctx, r, cfg, opts)
}

// ResumeTraceStream restarts an interrupted checkpointed streaming run: r
// must stream the same trace as the original run, checkpointPath the
// checkpoint it wrote, and cfg the configuration it ran under. The output
// is byte-identical (under WriteProfiles) to an uninterrupted run.
func ResumeTraceStream(ctx context.Context, r io.Reader, checkpointPath string, cfg Config, opts StreamOptions) (*Profiles, error) {
	return profio.ResumeStream(ctx, r, checkpointPath, cfg, opts)
}

// WriteTraceBinary2 encodes a trace in the APT2 framed format: length-
// prefixed, CRC-32-checksummed event frames that a lenient reader can
// resynchronize over after corruption. The binary trace decoders and the
// streaming entry points accept both APT1 and APT2 transparently.
func WriteTraceBinary2(w io.Writer, tr *Trace) error { return trace.WriteBinary2(w, tr) }

// PlotOptions controls PlotASCII rendering.
type PlotOptions struct {
	// Width and Height are the plot area size in characters (default
	// 60x20).
	Width  int
	Height int
	// LogX and LogY select log10 axes.
	LogX bool
	LogY bool
}

// PlotASCII renders the named routine's worst-case cost plot as a text
// scatter plot, optionally alongside the other metric for comparison.
func PlotASCII(ps *Profiles, routine string, metric Metric, opts PlotOptions) (string, error) {
	p := ps.Routine(routine)
	if p == nil {
		return "", fmt.Errorf("aprof: no profile for routine %q", routine)
	}
	s := asciiplot.Series{Name: metric.String()}
	for _, pt := range p.WorstCasePlot(metric) {
		s.Points = append(s.Points, asciiplot.Point{X: float64(pt.N), Y: float64(pt.Cost)})
	}
	return asciiplot.Render([]asciiplot.Series{s}, asciiplot.Options{
		Title:  fmt.Sprintf("%s: worst-case cost plot", routine),
		XLabel: fmt.Sprintf("input size (%s)", metric),
		YLabel: "cost (basic blocks)",
		Width:  opts.Width,
		Height: opts.Height,
		LogX:   opts.LogX,
		LogY:   opts.LogY,
	}), nil
}

// PlotCompareASCII renders the routine's rms and drms worst-case cost plots
// in one chart — the side-by-side view of the paper's Figs. 4-6.
func PlotCompareASCII(ps *Profiles, routine string, opts PlotOptions) (string, error) {
	p := ps.Routine(routine)
	if p == nil {
		return "", fmt.Errorf("aprof: no profile for routine %q", routine)
	}
	var series []asciiplot.Series
	for _, metric := range []Metric{RMS, DRMS} {
		s := asciiplot.Series{Name: metric.String()}
		for _, pt := range p.WorstCasePlot(metric) {
			s.Points = append(s.Points, asciiplot.Point{X: float64(pt.N), Y: float64(pt.Cost)})
		}
		series = append(series, s)
	}
	return asciiplot.Render(series, asciiplot.Options{
		Title:  fmt.Sprintf("%s: rms vs drms worst-case cost plots", routine),
		XLabel: "input size estimate",
		YLabel: "cost (basic blocks)",
		Width:  opts.Width,
		Height: opts.Height,
		LogX:   opts.LogX,
		LogY:   opts.LogY,
	}), nil
}
