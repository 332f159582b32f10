package core

// Concurrent run orchestration. One trace must be profiled serially (the
// algorithm consumes a totally ordered trace), but independent traces — the
// multi-run mode of the paper's introduction — have no shared state at all:
// each run gets its own Profiler, and the per-run Profiles merge by routine
// name afterwards. RunConcurrent exploits that with a worker pool over the
// runs, making multi-run profiling scale with cores while keeping every
// per-trace result identical to Run.

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"aprof/internal/trace"
)

// Job produces one trace to profile. Jobs run concurrently under
// RunConcurrent; a job should honor ctx cancellation when its work is
// long-running (building a workload, executing a VM program, decoding a
// file).
type Job func(ctx context.Context) (*trace.Trace, error)

// RunConcurrent profiles the traces produced by jobs with a pool of workers
// and folds the per-run profiles with MergeRuns. workers <= 0 uses
// GOMAXPROCS.
//
// Determinism: each trace is profiled by the exact sequential algorithm
// (Run), so per-trace results never depend on scheduling; the merged result
// is MergeRuns of the per-run profiles in job order. The first error — from
// the lowest-indexed failing job — cancels outstanding work and is
// returned.
//
// cfg.OnActivation, when set, is invoked from multiple worker goroutines
// concurrently; the callback must be safe for concurrent use.
func RunConcurrent(ctx context.Context, jobs []Job, cfg Config, workers int) (*Profiles, error) {
	if len(jobs) == 0 {
		return MergeRuns(), nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	runs := make([]*Profiles, len(jobs))
	errs := make([]error, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				tr, err := jobs[i](ctx)
				if err == nil {
					runs[i], err = Run(tr, cfg)
				}
				if err != nil {
					errs[i] = err
					cancel()
				}
			}
		}()
	}
	wg.Wait()

	// First-error propagation: prefer the lowest-indexed real failure over
	// the cancellations it caused in later jobs.
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return MergeRuns(runs...), nil
}

// sortedKeys returns run's profile keys ordered by (routine name, thread),
// making MergeRuns deterministic: symbol interning and profile folding
// follow a canonical order instead of map iteration order.
func sortedKeys(run *Profiles) []Key {
	keys := make([]Key, 0, len(run.ByKey))
	for key := range run.ByKey {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		ni, nj := run.Symbols.Name(keys[i].Routine), run.Symbols.Name(keys[j].Routine)
		if ni != nj {
			return ni < nj
		}
		return keys[i].Thread < keys[j].Thread
	})
	return keys
}
