package core

import "fmt"

// FaultPolicy selects how the profiler reacts to semantically malformed
// events: a return with no pending call, a call naming an unknown routine, a
// negative thread id, an event arriving after Finish, or an event of an
// invalid kind. Such events occur in practice when ingesting traces from
// partially corrupt or truncated sources (the lenient trace reader
// guarantees frame integrity, not cross-frame semantic consistency).
type FaultPolicy int

const (
	// FaultStrict aborts the run on the first malformed event. The zero
	// value: existing callers keep the fail-fast behavior.
	FaultStrict FaultPolicy = iota
	// FaultSkip drops malformed events silently.
	FaultSkip
	// FaultCount drops malformed events and counts them per category in
	// Profiles.Drops.
	FaultCount
)

// String returns the policy name as accepted by ParseFaultPolicy.
func (p FaultPolicy) String() string {
	switch p {
	case FaultSkip:
		return "skip"
	case FaultCount:
		return "count"
	default:
		return "strict"
	}
}

// ParseFaultPolicy parses a policy name (strict, skip, count).
func ParseFaultPolicy(s string) (FaultPolicy, error) {
	switch s {
	case "strict", "":
		return FaultStrict, nil
	case "skip":
		return FaultSkip, nil
	case "count":
		return FaultCount, nil
	}
	return FaultStrict, fmt.Errorf("core: unknown fault policy %q (want strict, skip, or count)", s)
}

// DropStats counts events dropped by a non-strict FaultPolicy or by the
// Limits degradation machinery, per category.
type DropStats struct {
	// ReturnWithoutCall counts return events on a thread whose shadow stack
	// was empty.
	ReturnWithoutCall uint64 `json:"returnWithoutCall,omitempty"`
	// UnknownRoutine counts call events naming a routine id not present in
	// the symbol table.
	UnknownRoutine uint64 `json:"unknownRoutine,omitempty"`
	// BadThread counts events carrying a negative thread id.
	BadThread uint64 `json:"badThread,omitempty"`
	// AfterFinish counts events fed after Finish.
	AfterFinish uint64 `json:"afterFinish,omitempty"`
	// InvalidKind counts events of a kind the profiler does not know.
	InvalidKind uint64 `json:"invalidKind,omitempty"`
	// DepthOverflow counts call events beyond Limits.MaxDepth, whose frames
	// were not pushed (their matching returns are absorbed silently).
	DepthOverflow uint64 `json:"depthOverflow,omitempty"`
	// SampledOut counts memory events skipped by the sampling degradation
	// triggered by Limits.MaxEvents or Limits.MaxMemoryBytes.
	SampledOut uint64 `json:"sampledOut,omitempty"`
}

// Total returns the total number of dropped events.
func (d *DropStats) Total() uint64 {
	return d.ReturnWithoutCall + d.UnknownRoutine + d.BadThread +
		d.AfterFinish + d.InvalidKind + d.DepthOverflow + d.SampledOut
}

// IsZero reports whether nothing was dropped. It compares the fields, not
// Total, whose sum can wrap to zero.
func (d *DropStats) IsZero() bool { return *d == DropStats{} }

// Merge folds other into d (used when aggregating multi-run profiles).
func (d *DropStats) Merge(other *DropStats) {
	d.ReturnWithoutCall += other.ReturnWithoutCall
	d.UnknownRoutine += other.UnknownRoutine
	d.BadThread += other.BadThread
	d.AfterFinish += other.AfterFinish
	d.InvalidKind += other.InvalidKind
	d.DepthOverflow += other.DepthOverflow
	d.SampledOut += other.SampledOut
}

// Limits bounds the profiler's resource usage on hostile or runaway inputs.
// Hitting a limit is not an error: the profiler degrades (dropping deep
// frames, sampling memory events) and accounts for every shed event in
// Profiles.Drops, instead of growing without bound.
type Limits struct {
	// MaxDepth caps each thread's shadow stack depth. Calls beyond the cap
	// are counted in Drops.DepthOverflow and not profiled; their returns are
	// matched against the overflow counter, so profiling resumes cleanly
	// once the stack shrinks below the cap. 0 = unlimited.
	MaxDepth int
	// MaxEvents, when non-zero, starts sampling memory events (read, write,
	// userToKernel, kernelToUser) once the run has processed this many
	// events, doubling the sampling stride each time the event count doubles
	// again. Metric values of routines active past the threshold become
	// estimates; costs stay exact.
	MaxEvents int
	// MaxMemoryBytes, when non-zero, bounds the profiler's estimated live
	// memory: every memCheckInterval events the deterministic size estimate
	// is compared against the bound, and the memory-event sampling stride is
	// doubled while the estimate exceeds it. 0 = unlimited.
	MaxMemoryBytes int64
}

// memCheckInterval is how often (in events) the MaxMemoryBytes estimate is
// refreshed. A power of two so the check stays aligned across resume.
const memCheckInterval = 4096

// maxMemStride caps the sampling degradation: past 1 in 2^20 memory events
// the profiler is effectively blind and doubling further only loses data.
const maxMemStride = 1 << 20

// fault handles one malformed event according to the configured policy:
// FaultStrict stores and returns an error built from format+args, the other
// policies bump *counter (FaultCount) or drop silently (FaultSkip).
func (p *Profiler) fault(counter *uint64, format string, args ...interface{}) error {
	switch p.cfg.FaultPolicy {
	case FaultSkip:
		return nil
	case FaultCount:
		*counter++
		return nil
	default:
		p.err = fmt.Errorf(format, args...)
		return p.err
	}
}
