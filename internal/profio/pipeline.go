package profio

// Pipelined trace ingestion. Profiling a binary trace is a two-stage job:
// decoding and validating events (pure, per-event independent work) and the
// timestamping algorithm itself (inherently serial — it consumes a totally
// ordered trace, Figs. 8/9 of the paper). The stages are connected by a
// bounded channel of reusable event batches, so decoding the next batch
// overlaps with profiling the current one and the steady state allocates
// nothing: the same Depth+1 batch buffers circulate between a free list and
// the full queue for the whole run. Because the profiler still handles every
// event in exact trace order, the resulting Profiles are identical — byte
// for byte under Write — to the sequential path.
//
// The pipeline is also the unit of fault tolerance. Each batch carries a
// snapshot of the decoder's position and corruption accounting taken at
// batch-fill time; because the decoder is single-threaded and runs ahead of
// the profiler, only these snapshots — never the reader's live state — may
// be combined with profiler state. A checkpoint pairs the profiler state
// with the snapshot of the batch just profiled, so resuming re-reads the
// trace, skips exactly the delivered prefix, and re-detects exactly the
// corruption the snapshot already accounted for (which ResetStats then
// discards). Interrupting after any batch therefore yields final profiles —
// and corruption totals — byte-identical to an uninterrupted run.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"aprof/internal/core"
	"aprof/internal/obs"
	"aprof/internal/trace"
)

// DefaultBatchSize is the default number of events per pipeline batch:
// large enough to amortize channel synchronization over thousands of
// events, small enough that two buffers stay cache-resident.
const DefaultBatchSize = 4096

// DefaultCheckpointEvery is the default checkpoint cadence in batches.
const DefaultCheckpointEvery = 16

// StreamOptions tunes the staged pipeline of ProfileStream.
type StreamOptions struct {
	// BatchSize is the number of decoded events handed to the profiler at a
	// time (default DefaultBatchSize).
	BatchSize int
	// Depth is the capacity of the batch channel between the decoder and
	// the profiler (default 2: one batch being profiled, one in flight,
	// one being filled — double buffering with a one-batch cushion).
	Depth int
	// Lenient opens the trace in lenient mode: corrupt APT2 frames are
	// skipped and accounted in the output's Corruption stats instead of
	// aborting the run.
	Lenient bool
	// CheckpointPath, when non-empty, makes the run durable: the complete
	// profiler state is appended to the CheckpointLog there every
	// CheckpointEvery batches.
	CheckpointPath string
	// CheckpointSink, when non-nil, takes the place of CheckpointPath's log:
	// it receives every checkpoint the run takes, as the encoded APCK
	// document and the stream position it captures. doc stays valid until
	// the run takes its next checkpoint, so a sink may hold it past its own
	// return (aprofd writes and replicates it from the batch hook). An error
	// aborts the run like a failed checkpoint write.
	CheckpointSink func(doc []byte, state core.StreamState) error
	// CheckpointEvery is the checkpoint cadence in batches (default
	// DefaultCheckpointEvery). Only meaningful with a checkpoint
	// destination.
	CheckpointEvery int
	// OnBatch, when non-nil, is called after each batch is profiled (and
	// after any checkpoint for it was written), with the 1-based batch
	// index and the cumulative delivered event count. Returning a non-nil
	// error aborts the run with that error — the crash-injection hook of
	// the resume tests.
	OnBatch func(batch int, delivered uint64) error
	// FinalCheckpoint, with a checkpoint destination, takes one last
	// checkpoint when the run is interrupted — context cancellation, a
	// decoder failure (for a network source: the connection died), or an
	// OnBatch abort — capturing the last fully profiled batch. The profiler consumes events
	// only at batch granularity, so this state is always consistent; it is
	// skipped when the profiler itself failed mid-batch. An interrupted run
	// therefore loses nothing past the last batch instead of everything
	// past the last periodic checkpoint.
	FinalCheckpoint bool
}

// eventBatch is the unit of work handed from the decoder to the profiler.
type eventBatch struct {
	events []trace.Event
	// delivered is the cumulative event count through this batch, and stats
	// the reader's corruption accounting, both snapshotted when the batch
	// was filled. They describe exactly the delivered prefix: the decoder
	// has not read past the frame holding this batch's last event.
	delivered uint64
	stats     trace.CorruptionStats
	// frames/resyncs snapshot the reader's cumulative frame accounting at
	// fill time, for the observability layer. The reader itself belongs to
	// the decoder goroutine; only these snapshots may cross to the profiler
	// stage.
	frames  uint64
	resyncs uint64
}

// streamObs holds the pipeline's pre-resolved metric handles (scope
// "profio") plus the last-published values of the cumulative quantities it
// delta-reports. It lives on the profiler (consumer) side of the channel;
// the decoder goroutine only touches the decode-latency histogram, which is
// safe to share (atomics).
type streamObs struct {
	batches         *obs.Counter
	eventsDelivered *obs.Counter
	framesDecoded   *obs.Counter
	framesResynced  *obs.Counter
	framesDropped   *obs.Counter
	checkpoints     *obs.Counter
	decodeUS        *obs.Histogram
	profileUS       *obs.Histogram

	lastDelivered     uint64
	lastFrames        uint64
	lastResyncs       uint64
	lastFramesDropped int
}

// ObsScopeProfio is the metric scope of the streaming pipeline.
const ObsScopeProfio = "profio"

func newStreamObs(reg *obs.Registry, base core.StreamState) *streamObs {
	if reg == nil {
		return nil
	}
	s := reg.Scope(ObsScopeProfio)
	return &streamObs{
		batches:         s.Counter("batches"),
		eventsDelivered: s.Counter("events_delivered"),
		framesDecoded:   s.Counter("frames_decoded"),
		framesResynced:  s.Counter("frames_resynced"),
		framesDropped:   s.Counter("frames_dropped"),
		checkpoints:     s.Counter("checkpoints"),
		decodeUS:        s.Histogram("batch_decode_us"),
		profileUS:       s.Histogram("batch_profile_us"),
		// A resumed run reports only its own deliveries, not the
		// checkpointed prefix it skipped.
		lastDelivered: base.EventsDelivered,
	}
}

// publishBatch folds one profiled batch into the pipeline counters.
func (so *streamObs) publishBatch(b *eventBatch) {
	so.batches.Inc()
	so.eventsDelivered.Add(b.delivered - so.lastDelivered)
	so.lastDelivered = b.delivered
	so.framesDecoded.Add(b.frames - so.lastFrames)
	so.lastFrames = b.frames
	so.framesResynced.Add(b.resyncs - so.lastResyncs)
	so.lastResyncs = b.resyncs
	if d := b.stats.FramesDropped - so.lastFramesDropped; d > 0 {
		so.framesDropped.Add(uint64(d))
	}
	so.lastFramesDropped = b.stats.FramesDropped
}

// ProfileStream profiles a binary trace incrementally from r through a
// staged pipeline: a decoder goroutine parses and validates events into
// reusable batches and hands them to the (serial) profiler stage over a
// bounded channel. Trace files far larger than memory can be profiled; the
// profiler's state is bounded by the traced program's footprint, not the
// trace length.
//
// Cancelling ctx aborts the run between batches (a decoder blocked inside
// r.Read is not interrupted). The first error wins: a profiler error is
// reported even when the decoder subsequently fails or is cancelled, and
// vice versa.
func ProfileStream(ctx context.Context, r io.Reader, cfg core.Config, opts StreamOptions) (*core.Profiles, error) {
	br, err := trace.NewBinaryReaderOpts(r, trace.ReaderOptions{Lenient: opts.Lenient})
	if err != nil {
		return nil, err
	}
	p := core.NewProfiler(br.Symbols(), cfg)
	return runPipeline(ctx, br, p, opts, core.StreamState{}, cfg.Obs)
}

// ResumeStream restarts an interrupted ProfileStream run from its last
// checkpoint. r must stream the same trace bytes as the original run; cfg
// must match the checkpointed configuration. The run keeps checkpointing
// per opts, so a run can crash and resume repeatedly.
func ResumeStream(ctx context.Context, r io.Reader, checkpointPath string, cfg core.Config, opts StreamOptions) (*core.Profiles, error) {
	_, doc, err := ReadCheckpointLog(checkpointPath)
	if err != nil {
		return nil, fmt.Errorf("profio: reading checkpoint: %w", err)
	}
	return ResumeStreamFrom(ctx, r, doc, cfg, opts)
}

// ErrTraceMismatch is returned by ResumeStream and ResumeStreamFrom when the
// trace's symbol table differs from the checkpoint's: the checkpoint was
// taken over another trace and can never resume this one.
var ErrTraceMismatch = errors.New("profio: trace does not match checkpoint (different symbol tables)")

// ResumeStreamFrom is ResumeStream from a checkpoint document already in
// memory, such as the record a caller read and validated itself.
func ResumeStreamFrom(ctx context.Context, r io.Reader, doc []byte, cfg core.Config, opts StreamOptions) (*core.Profiles, error) {
	p, state, err := core.ResumeProfiler(bytes.NewReader(doc), cfg)
	if err != nil {
		return nil, err
	}
	br, err := trace.NewBinaryReaderOpts(r, trace.ReaderOptions{Lenient: opts.Lenient})
	if err != nil {
		return nil, err
	}
	if !slices.Equal(br.Symbols().Names(), p.Symbols().Names()) {
		return nil, ErrTraceMismatch
	}
	if err := br.Skip(state.EventsDelivered); err != nil {
		return nil, fmt.Errorf("profio: repositioning trace at event %d: %w", state.EventsDelivered, err)
	}
	// The skip re-detected exactly the corruption already accounted in the
	// checkpointed stats; discard it so the totals are not double counted.
	br.ResetStats()
	return runPipeline(ctx, br, p, opts, state, cfg.Obs)
}

// runPipeline drives the decode/profile pipeline to completion, starting
// from base (zero for a fresh run, the checkpointed state for a resume).
// With a non-nil registry the pipeline reports its own health (batch
// decode/profile latency, frames decoded/resynced/dropped, delivered
// events) and republishes the profiler's state-derived gauges after every
// batch — all at batch granularity, never per event, so the registry cannot
// perturb the hot path it observes.
func runPipeline(ctx context.Context, br *trace.BinaryReader, p *core.Profiler, opts StreamOptions, base core.StreamState, reg *obs.Registry) (*core.Profiles, error) {
	batchSize := opts.BatchSize
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	depth := opts.Depth
	if depth <= 0 {
		depth = 2
	}
	ckptEvery := opts.CheckpointEvery
	if ckptEvery <= 0 {
		ckptEvery = DefaultCheckpointEvery
	}

	so := newStreamObs(reg, base)
	// lastState tracks the stream position of the last fully profiled
	// batch: every checkpoint captures it.
	lastState := base
	sink := opts.CheckpointSink
	if sink == nil && opts.CheckpointPath != "" {
		log := NewCheckpointLog(opts.CheckpointPath)
		sink = func(doc []byte, state core.StreamState) error {
			if err := log.Append(state.EventsDelivered, doc); err != nil {
				return fmt.Errorf("profio: writing checkpoint: %w", err)
			}
			return nil
		}
	}
	// checkpoint encodes the profiler at the last batch boundary and hands
	// the document to the sink.
	checkpoint := func() error {
		doc, err := p.Checkpoint(lastState)
		if err == nil {
			err = sink(doc, lastState)
		}
		if err == nil && so != nil {
			so.checkpoints.Inc()
		}
		return err
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// full carries decoded batches to the profiler; free returns consumed
	// buffers to the decoder. depth+1 buffers circulate, so the free send
	// below never blocks and the decoder only ever waits on full.
	full := make(chan *eventBatch, depth)
	free := make(chan *eventBatch, depth+1)
	for i := 0; i < depth+1; i++ {
		free <- &eventBatch{events: make([]trace.Event, 0, batchSize)}
	}
	// decodeDone carries the decoder stage's terminal status (nil on clean
	// EOF); buffered so the decoder never blocks on it.
	decodeDone := make(chan error, 1)

	startDecoder(ctx, br, so, batchSize, base.EventsDelivered, full, free, decodeDone)

	var profileErr error
	// profilerBroken means the profiler failed mid-batch: its state is not
	// at a batch boundary and must never be checkpointed.
	profilerBroken := false
	batchIndex := 0
	for b := range full {
		if profileErr == nil {
			var profStart time.Time
			if so != nil {
				profStart = time.Now()
			}
			for i := range b.events {
				if err := p.HandleEvent(&b.events[i]); err != nil {
					profileErr = err
					profilerBroken = true
					cancel() // stop the decoder; keep draining full
					break
				}
			}
			if so != nil {
				so.profileUS.Observe(uint64(time.Since(profStart).Microseconds()))
				if profileErr == nil {
					so.publishBatch(b)
					p.PublishObs()
				}
			}
			if profileErr == nil {
				lastState = core.StreamState{EventsDelivered: b.delivered, Corruption: base.Corruption}
				lastState.Corruption.Merge(b.stats)
				batchIndex++
				if sink != nil && batchIndex%ckptEvery == 0 {
					if err := checkpoint(); err != nil {
						profileErr = err
						cancel()
					}
				}
			}
			if profileErr == nil && opts.OnBatch != nil {
				if err := opts.OnBatch(batchIndex, b.delivered); err != nil {
					profileErr = err
					cancel()
				}
			}
		}
		free <- b
	}
	decodeErr := <-decodeDone
	runErr := profileErr
	if runErr == nil {
		runErr = decodeErr
	}
	if runErr == nil {
		runErr = ctx.Err()
	}
	if runErr != nil {
		// The run is aborting. If the caller asked for durability across
		// interruptions, preserve the last batch boundary; a checkpoint-write
		// failure is reported alongside the abort reason, never silently.
		if opts.FinalCheckpoint && sink != nil && !profilerBroken {
			if err := checkpoint(); err != nil {
				runErr = errors.Join(runErr, err)
			}
		}
		return nil, runErr
	}
	ps, err := p.Finish()
	if err != nil {
		return nil, err
	}
	// Total corruption accounting: the (possibly checkpointed) prefix plus
	// everything this run's reader saw. The decoder goroutine has exited
	// (decodeDone received), so reading its final stats is race-free.
	final := base.Corruption
	final.Merge(br.Stats())
	ps.Corruption = final
	return ps, nil
}

// startDecoder launches the decode stage: it parses events into recycled
// batches from free and hands them over full, reporting its terminal status
// on decodeDone and closing full when done.
func startDecoder(ctx context.Context, br *trace.BinaryReader, so *streamObs, batchSize int, baseDelivered uint64, full chan<- *eventBatch, free <-chan *eventBatch, decodeDone chan<- error) {
	go func() {
		defer close(full)
		// A panic while decoding must not take down the process hosting the
		// pipeline (the aprofd daemon runs one pipeline per connection): it
		// becomes this stage's terminal error, reported like any decode
		// failure. The profiler stage sees full closed, drains, and returns.
		defer func() {
			if v := recover(); v != nil {
				decodeDone <- fmt.Errorf("profio: decoder panic: %v", v)
			}
		}()
		delivered := baseDelivered
		for {
			var b *eventBatch
			select {
			case b = <-free:
			case <-ctx.Done():
				decodeDone <- ctx.Err()
				return
			}
			var fillStart time.Time
			if so != nil {
				fillStart = time.Now()
			}
			batch := b.events[:0]
			var decodeErr error
			for len(batch) < batchSize {
				batch = batch[:len(batch)+1]
				ok, err := br.Next(&batch[len(batch)-1])
				if err != nil || !ok {
					batch = batch[:len(batch)-1]
					decodeErr = err
					break
				}
			}
			delivered += uint64(len(batch))
			b.events = batch
			b.delivered = delivered
			b.stats = br.Stats()
			b.frames, b.resyncs = br.FrameStats()
			if so != nil {
				so.decodeUS.Observe(uint64(time.Since(fillStart).Microseconds()))
			}
			if len(batch) > 0 {
				select {
				case full <- b:
				case <-ctx.Done():
					decodeDone <- ctx.Err()
					return
				}
			}
			if decodeErr != nil || len(batch) < batchSize {
				// Error or end of trace (a short batch means br.Next
				// reported !ok).
				decodeDone <- decodeErr
				return
			}
		}
	}()
}
