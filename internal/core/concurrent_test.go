package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"aprof/internal/trace"
)

// TestRunConcurrentMatchesSequential checks the worker-pool orchestration
// end to end: profiling N traces concurrently must equal profiling them
// sequentially and merging.
func TestRunConcurrentMatchesSequential(t *testing.T) {
	const n = 8
	traces := make([]*trace.Trace, n)
	jobs := make([]Job, n)
	for i := range traces {
		tr := trace.Random(trace.RandomConfig{Seed: int64(100 + i), Ops: 600})
		traces[i] = tr
		jobs[i] = func(context.Context) (*trace.Trace, error) { return tr, nil }
	}
	cfg := DefaultConfig()
	var runs []*Profiles
	for _, tr := range traces {
		ps, err := Run(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, ps)
	}
	want := MergeRuns(runs...)
	for _, workers := range []int{0, 1, 3, 8} {
		got, err := RunConcurrent(context.Background(), jobs, cfg, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(summarize(want), summarize(got)) {
			t.Errorf("workers=%d: concurrent result differs from sequential", workers)
		}
	}
}

// TestRunConcurrentFirstError checks that the lowest-indexed failure is
// reported, not the cancellations it causes downstream.
func TestRunConcurrentFirstError(t *testing.T) {
	boom := errors.New("job 2 failed")
	var jobs []Job
	for i := 0; i < 16; i++ {
		i := i
		jobs = append(jobs, func(ctx context.Context) (*trace.Trace, error) {
			if i == 2 {
				return nil, boom
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return trace.Random(trace.RandomConfig{Seed: int64(i), Ops: 200}), nil
		})
	}
	_, err := RunConcurrent(context.Background(), jobs, DefaultConfig(), 4)
	if !errors.Is(err, boom) {
		t.Errorf("got %v, want %v", err, boom)
	}
}

// TestRunConcurrentCancellation checks a pre-cancelled context aborts.
func TestRunConcurrentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := []Job{func(ctx context.Context) (*trace.Trace, error) {
		return nil, ctx.Err()
	}}
	_, err := RunConcurrent(ctx, jobs, DefaultConfig(), 2)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("got %v, want context.Canceled", err)
	}
}

// TestRunConcurrentEmpty checks the degenerate case.
func TestRunConcurrentEmpty(t *testing.T) {
	ps, err := RunConcurrent(context.Background(), nil, DefaultConfig(), 4)
	if err != nil || ps == nil || len(ps.ByKey) != 0 {
		t.Errorf("empty jobs: ps=%v err=%v", ps, err)
	}
}
