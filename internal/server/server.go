package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aprof/internal/core"
	"aprof/internal/obs"
	"aprof/internal/profio"
	"aprof/internal/replica/wire"
	"aprof/internal/repo"
	"aprof/internal/repo/backend"
)

// ObsScopeServer is the metric scope of the daemon: session lifecycle,
// backpressure, and failure counters surfaced through -debug-addr.
const ObsScopeServer = "server"

// Defaults for Options fields left zero.
const (
	DefaultMaxSessions  = 8
	DefaultIdleTimeout  = 30 * time.Second
	DefaultWriteTimeout = 10 * time.Second
)

// errEventLimit aborts a session that exceeded Options.MaxSessionEvents.
var errEventLimit = errors.New("server: session event limit exceeded")

// Options configures a Server. The zero value is usable: defaults above,
// no byte/event limits, no durability (no checkpoint dir), results kept
// in memory only (every one of them, for the life of the process).
type Options struct {
	// MaxSessions is the concurrent-session ceiling. Connection attempts
	// beyond the effective limit receive an explicit busy response and are
	// closed — load is shed, never queued into an unbounded backlog.
	MaxSessions int
	// Admission configures adaptive admission control beneath the
	// MaxSessions ceiling: when any of its signal thresholds is set (and
	// Obs is non-nil), the effective limit moves AIMD-style with the
	// decode-latency high-water mark and the heap estimate, degrading
	// overload to the same explicit shedding. The zero value keeps the
	// fixed semaphore.
	Admission AdmissionOptions
	// IdleTimeout is the per-read deadline on client connections. A
	// stalled or slow-loris client times out and frees its session slot
	// (with its checkpoint intact) instead of holding it forever.
	IdleTimeout time.Duration
	// WriteTimeout bounds every server→client write (responses, acks).
	WriteTimeout time.Duration
	// MaxConnBytes caps the bytes read from one connection (0 = unlimited).
	// The cap is per connection: a resumed session gets a fresh budget, so
	// a session can still finish across reconnects via its checkpoint.
	MaxConnBytes int64
	// MaxSessionEvents caps delivered events per session (0 = unlimited).
	MaxSessionEvents uint64
	// CheckpointDir, when set, makes sessions durable: their checkpoints go
	// to a profio.CheckpointStore over the directory (one log per session,
	// <dir>/<id>.rck), interrupted sessions resume from it on reconnect,
	// and a graceful drain checkpoints everything in flight. A directory
	// the store cannot open fails every session transiently at its first
	// checkpoint. It is unused when Replica is set: the replica node's
	// checkpoint store, the same kind of store, then holds every
	// checkpoint.
	CheckpointDir string
	// ResultDir, when set, also writes each completed profile to
	// <dir>/<id>.json (atomically: temp file, fsync, rename).
	ResultDir string
	// Store, when set, persists each completed profile into the
	// content-addressed profile repository (one SHA-256-addressed blob
	// per profile, checksummed, crash-safe). Result and ResultIDs then also serve sessions that only
	// exist in the store — e.g. from before a daemon restart — so the
	// /profiles/ endpoints and cluster fan-out read through it
	// transparently. With a Store, memory holds only the MaxSessions most
	// recently stored results; older ones are served from the store. Without
	// one, memory is the only copy and every result stays there. The Server
	// does not close the store.
	Store *repo.Repository
	// Config is the profiler configuration shared by all sessions. It must
	// be identical across daemon restarts for checkpoints to resume.
	Config core.Config
	// BatchSize / CheckpointEvery tune the per-session pipeline (defaults
	// as in profio).
	BatchSize       int
	CheckpointEvery int
	// Replica, when set, switches the daemon to replicated-checkpoint mode
	// (see ReplicaService): sessions are durable with no shared disk, and
	// batch acks coalesce to checkpoint boundaries. A single node acks
	// every batch.
	Replica ReplicaService
	// Obs receives daemon metrics under scope "server" (nil disables).
	Obs *obs.Registry
	// Logf logs daemon events (nil discards).
	Logf func(format string, args ...any)
	// OnSessionBatch, when non-nil, is called after every profiled batch
	// of every session — an operational hook (and the chaos harness's
	// panic/kill injection point). It runs on the session goroutine, so a
	// panic here exercises the session panic isolation.
	OnSessionBatch func(session string, batch int, delivered uint64)
}

// SessionResult is a completed session's outcome.
type SessionResult struct {
	ID        string `json:"id"`
	Delivered uint64 `json:"delivered"`
	Resumed   bool   `json:"resumed"`
	// Profile is the profio JSON document.
	Profile []byte `json:"-"`
}

// serverMetrics holds the pre-resolved metric handles (all nil-safe).
type serverMetrics struct {
	connsAccepted   *obs.Counter
	sessionsStarted *obs.Counter
	sessionsResumed *obs.Counter
	sessionsDone    *obs.Counter
	sessionsFailed  *obs.Counter
	sessionsDrained *obs.Counter
	sessionsShed    *obs.Counter
	probes          *obs.Counter
	panics          *obs.Counter
	ckptDiscarded   *obs.Counter
	acksSent        *obs.Counter
	bytesReceived   *obs.Counter
	replicaConns    *obs.Counter
	replicaPushed   *obs.Counter
	replicaFailed   *obs.Counter
	replicaAdopted  *obs.Counter
	active          *obs.Gauge
	resultsCached   *obs.Gauge
	resultsBytes    *obs.Gauge
	resultEncode    *obs.Histogram
	resultSave      *obs.Histogram
	ckptAppend      *obs.Histogram
	replicate       *obs.Histogram
}

func newServerMetrics(reg *obs.Registry) serverMetrics {
	s := reg.Scope(ObsScopeServer)
	return serverMetrics{
		connsAccepted:   s.Counter("conns_accepted"),
		sessionsStarted: s.Counter("sessions_started"),
		sessionsResumed: s.Counter("sessions_resumed"),
		sessionsDone:    s.Counter("sessions_completed"),
		sessionsFailed:  s.Counter("sessions_failed"),
		sessionsDrained: s.Counter("sessions_drained"),
		sessionsShed:    s.Counter("sessions_shed"),
		probes:          s.Counter("probes_answered"),
		panics:          s.Counter("panics_recovered"),
		ckptDiscarded:   s.Counter("checkpoints_discarded"),
		acksSent:        s.Counter("acks_sent"),
		bytesReceived:   s.Counter("bytes_received"),
		replicaConns:    s.Counter("replica_conns"),
		replicaPushed:   s.Counter("replica_checkpoints_pushed"),
		replicaFailed:   s.Counter("replica_pushes_failed"),
		replicaAdopted:  s.Counter("replica_checkpoints_adopted"),
		active:          s.Gauge("active_sessions"),
		resultsCached:   s.Gauge("results_cached"),
		resultsBytes:    s.Gauge("results_cached_bytes"),
		resultEncode:    s.Histogram("result_encode_us"),
		resultSave:      s.Histogram("result_save_us"),
		ckptAppend:      s.Histogram("checkpoint_append_us"),
		replicate:       s.Histogram("replicate_us"),
	}
}

// Server is the aprofd trace-ingestion daemon.
type Server struct {
	opts Options
	m    serverMetrics
	adm  *admission

	ctx    context.Context // cancelled on drain/abort; parent of all sessions
	cancel context.CancelFunc

	ln       net.Listener
	wg       sync.WaitGroup
	draining atomic.Bool
	// aborted distinguishes a hard Abort (the in-process SIGKILL stand-in)
	// from a graceful drain: an aborted replicating node must not commit
	// final checkpoints — a killed process could not have either.
	aborted atomic.Bool
	// ckpts commits, recovers and drops session checkpoints: the Replica
	// service, or a single node's store over CheckpointDir. Nil without
	// either: sessions are not durable.
	ckpts checkpoints

	mu        sync.Mutex
	conns     map[net.Conn]struct{}
	activeIDs map[string]struct{}
	// results holds completed sessions' outcomes in memory. With a Store
	// it is a window of the MaxSessions most recently stored ones, listed
	// oldest first in resultOrder; without one it holds every result and
	// resultOrder stays empty. resultBytes sums the held profiles.
	results     map[string]*SessionResult
	resultOrder []string
	resultBytes int64
}

// New returns an unstarted server. Call Start (or Serve with an existing
// listener) to begin accepting.
func New(opts Options) *Server {
	if opts.MaxSessions <= 0 {
		opts.MaxSessions = DefaultMaxSessions
	}
	if opts.IdleTimeout <= 0 {
		opts.IdleTimeout = DefaultIdleTimeout
	}
	if opts.WriteTimeout <= 0 {
		opts.WriteTimeout = DefaultWriteTimeout
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:      opts,
		m:         newServerMetrics(opts.Obs),
		adm:       newAdmission(opts.MaxSessions, opts.Admission, opts.Obs),
		ctx:       ctx,
		cancel:    cancel,
		conns:     make(map[net.Conn]struct{}),
		activeIDs: make(map[string]struct{}),
		results:   make(map[string]*SessionResult),
	}
	switch {
	case opts.Replica != nil:
		s.ckpts = opts.Replica
	case opts.CheckpointDir != "":
		store, err := profio.OpenCheckpointStore(opts.CheckpointDir, s.m.ckptAppend, s.m.ckptDiscarded)
		if err != nil {
			s.logf("aprofd: %v: sessions fail at their first checkpoint while it is unusable", err)
		}
		s.ckpts = localStore{store}
	}
	return s
}

// Start listens on addr and begins accepting connections.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.Serve(ln)
	return nil
}

// Serve begins accepting connections from ln, taking ownership of it.
// It returns immediately; use Shutdown/Abort + Wait to stop.
func (s *Server) Serve(ln net.Listener) {
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) || s.ctx.Err() != nil {
				return
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			s.logf("aprofd: accept: %v", err)
			return
		}
		s.m.connsAccepted.Inc()
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

// handleConn owns one connection's lifecycle. The inner closure is the
// panic isolation boundary: a panic anywhere in session handling — the
// profiler, a checkpoint write, the operational hook — is converted into a
// session error record and a log line, and the daemon keeps serving.
func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	func() {
		defer func() {
			if v := recover(); v != nil {
				s.m.panics.Inc()
				s.m.sessionsFailed.Inc()
				s.logf("aprofd: session panic (isolated): %v\n%s", v, debug.Stack())
				writeError(conn, s.opts.WriteTimeout, true, fmt.Sprintf("internal error: session panicked: %v", v))
			}
		}()
		s.session(conn)
	}()
}

// meteredReader counts and caps the bytes read from one connection.
type meteredReader struct {
	r       io.Reader
	n       int64
	limit   int64
	tripped bool
}

var errConnByteLimit = errors.New("server: connection byte limit exceeded")

func (m *meteredReader) Read(p []byte) (int, error) {
	if m.limit > 0 {
		remaining := m.limit - m.n
		if remaining <= 0 {
			m.tripped = true
			return 0, errConnByteLimit
		}
		if int64(len(p)) > remaining {
			p = p[:remaining]
		}
	}
	n, err := m.r.Read(p)
	m.n += int64(n)
	return n, err
}

// idleConn arms a fresh read deadline before every Read, so the allowed
// idle gap — not total session length — is bounded. Slow-loris clients
// trickling a byte per interval still make progress; silent ones time out.
type idleConn struct {
	net.Conn
	idle time.Duration
	// draining is the server's drain flag. Shutdown stores it before it
	// expires every conn's read deadline, and Read re-checks it after
	// arming a fresh deadline, so one of the two always wins: a Read that
	// re-armed after Shutdown's nudge cannot block for a full idle period.
	draining *atomic.Bool
}

func (c *idleConn) Read(p []byte) (int, error) {
	if c.idle > 0 {
		c.Conn.SetReadDeadline(time.Now().Add(c.idle))
		if c.draining.Load() {
			c.Conn.SetReadDeadline(time.Now())
		}
	}
	return c.Conn.Read(p)
}

// session runs the handshake and one profiling session over conn.
func (s *Server) session(conn net.Conn) {
	metered := &meteredReader{r: &idleConn{Conn: conn, idle: s.opts.IdleTimeout, draining: &s.draining}, limit: s.opts.MaxConnBytes}
	defer func() { s.m.bytesReceived.Add(uint64(metered.n)) }()
	br := bufio.NewReader(metered)

	// Replication traffic shares the ingest port: the APRR magic is the
	// same length as the APRD one, so a 4-byte peek demultiplexes without
	// consuming anything. Peer transfers are exempt from the per-client
	// byte budget — a store sync is not a client upload.
	if s.opts.Replica != nil {
		if head, perr := br.Peek(len(wire.Magic)); perr == nil && string(head) == wire.Magic {
			s.m.replicaConns.Inc()
			metered.limit = 0
			s.opts.Replica.ServeConn(conn, br)
			return
		}
	}

	hs, err := readHandshake(br)
	if err != nil {
		writeResponse(conn, s.opts.WriteTimeout, StatusError, 0, err.Error())
		return
	}

	if hs.probe {
		// A liveness probe: answer and hang up. It never claims a slot, so
		// probing an overloaded node still succeeds — "full" and "down" are
		// different answers. Only a draining node refuses: it sheds every
		// new session, so routing should stop picking it.
		s.m.probes.Inc()
		if s.draining.Load() {
			writeResponse(conn, s.opts.WriteTimeout, StatusBusy, 0, "server draining")
			return
		}
		s.mu.Lock()
		active := len(s.activeIDs)
		s.mu.Unlock()
		writeResponse(conn, s.opts.WriteTimeout, StatusOK, uint64(active), "")
		return
	}

	if s.draining.Load() {
		writeResponse(conn, s.opts.WriteTimeout, StatusBusy, 0, "server draining")
		return
	}

	// Backpressure: one slot per session up to the admission limit, then
	// explicit shedding. A busy response costs the daemon almost nothing;
	// an unbounded accept queue under overload costs it everything — and a
	// cluster-aware client turns the busy answer into failover to the ring
	// successor instead of failure.
	if !s.acquireSlot(hs.id) {
		s.m.sessionsShed.Inc()
		writeResponse(conn, s.opts.WriteTimeout, StatusBusy, 0, "server busy")
		return
	}
	defer s.releaseSlot(hs.id)

	// Durability: adopt this session's checkpoint if one exists and is
	// usable; discard it (and start fresh) if it is corrupt or was taken
	// under a different configuration — availability over a stale file.
	var resumeDoc []byte
	var resumeState *core.StreamState
	durable := s.ckpts != nil
	if durable {
		resumeDoc, resumeState = s.recoverCheckpoint(hs.id)
	}

	status, offset := StatusOK, uint64(0)
	if resumeState != nil {
		status, offset = StatusResume, resumeState.EventsDelivered
	}
	if err := writeResponse(conn, s.opts.WriteTimeout, status, offset, ""); err != nil {
		s.m.sessionsFailed.Inc()
		return
	}

	s.m.sessionsStarted.Inc()
	if resumeState != nil {
		s.m.sessionsResumed.Inc()
	}
	s.m.active.Add(1)
	defer s.m.active.Add(-1)

	// pending is the boundary checkpoint the pipeline encoded right before
	// the batch hook below runs. The hook makes it durable — put in the
	// node's checkpoint store and, in replicated mode, confirmed by the
	// replica set — before the ack goes out, so an acknowledged event
	// survives a restart and, replicated, the loss of this node, disk
	// included. Committing from the hook, not the sink, keeps the order a
	// session shows the outside: batch hook, checkpoint, ack.
	var pending []byte
	var pendingSeq uint64
	var delivered uint64
	opts := profio.StreamOptions{
		BatchSize:       s.opts.BatchSize,
		CheckpointEvery: s.opts.CheckpointEvery,
		Lenient:         hs.lenient,
		FinalCheckpoint: durable,
		OnBatch: func(batch int, d uint64) error {
			delivered = d
			if s.opts.OnSessionBatch != nil {
				s.opts.OnSessionBatch(hs.id, batch, d)
			}
			if s.opts.MaxSessionEvents > 0 && d > s.opts.MaxSessionEvents {
				return fmt.Errorf("%w (%d > %d)", errEventLimit, d, s.opts.MaxSessionEvents)
			}
			if pending != nil {
				doc := pending
				pending = nil
				if err := s.commitCheckpoint(hs.id, doc, pendingSeq); err != nil {
					return err
				}
			} else if s.opts.Replica != nil {
				// Replicated mode: acks coalesce to checkpoint boundaries.
				return nil
			}
			if err := writeAck(conn, s.opts.WriteTimeout, RecAck, d); err != nil {
				return fmt.Errorf("server: acking batch %d: %w", batch, err)
			}
			s.m.acksSent.Inc()
			return nil
		},
	}
	if durable {
		opts.CheckpointSink = func(doc []byte, state core.StreamState) error {
			pending, pendingSeq = doc, state.EventsDelivered
			return nil
		}
	}

	var ps *core.Profiles
	if resumeState != nil {
		ps, err = profio.ResumeStreamFrom(s.ctx, br, resumeDoc, s.opts.Config, opts)
	} else {
		ps, err = profio.ProfileStream(s.ctx, br, s.opts.Config, opts)
	}
	if err != nil {
		if errors.Is(err, profio.ErrTraceMismatch) {
			// The checkpoint was taken over another trace sent under this
			// id: it can never resume this one, so the retry must start
			// fresh.
			s.discardCheckpoint(hs.id, err)
		}
		// The run stopped with a checkpoint not yet durable: the final one
		// the pipeline takes on its way out, capturing the last profiled
		// batch. It is committed like a boundary's, except that an aborted
		// replicating node (the in-process SIGKILL stand-in) commits
		// nothing: a killed process could not have, and the chaos harness
		// must not measure a fidelity the real signal does not have.
		if pending != nil && (s.opts.Replica == nil || !s.aborted.Load()) {
			if cerr := s.commitCheckpoint(hs.id, pending, pendingSeq); cerr != nil {
				s.logf("aprofd: session %s: final checkpoint: %v", hs.id, cerr)
			}
		}
		s.failSession(conn, hs.id, metered, err)
		return
	}

	if err := s.storeResult(hs.id, ps, delivered, resumeState != nil); err != nil {
		s.m.sessionsFailed.Inc()
		s.logf("aprofd: session %s: storing result: %v", hs.id, err)
		writeError(conn, s.opts.WriteTimeout, true, fmt.Sprintf("storing result: %v", err))
		return
	}
	if durable {
		// The session is complete; its checkpoint is obsolete — on a
		// replicating node its copies too, best-effort. A leftover one
		// would make a future same-id session "resume" past the end of a
		// different trace.
		s.ckpts.Drop(hs.id)
	}
	s.m.sessionsDone.Inc()
	writeAck(conn, s.opts.WriteTimeout, RecFinal, delivered)
}

// recoverCheckpoint adopts the newest checkpoint the node's store holds —
// on a replicating node, the newest the replica set holds, this node's
// store included. The stored bytes are resumed from exactly, so the
// session continues from precisely what was written and output stays
// byte-identical to an uninterrupted run. An unusable checkpoint is
// discarded before the session starts fresh: left in place, it would
// outrank every checkpoint the new run writes, which the stores would then
// refuse as stale.
func (s *Server) recoverCheckpoint(id string) ([]byte, *core.StreamState) {
	_, data, err := s.ckpts.Recover(id)
	if err != nil {
		return nil, nil // ErrNoReplicaCheckpoint: a fresh session
	}
	state, err := core.ReadCheckpointState(bytes.NewReader(data), s.opts.Config)
	if err != nil {
		s.discardCheckpoint(id, err)
		return nil, nil
	}
	if s.opts.Replica != nil {
		s.m.replicaAdopted.Inc()
	}
	s.logf("aprofd: session %s: recovered checkpoint (%d events)", id, state.EventsDelivered)
	return data, &state
}

// discardCheckpoint drops the session's unusable checkpoint: from the
// node's store and, on a replicating node, from the replica set.
func (s *Server) discardCheckpoint(id string, err error) {
	s.m.ckptDiscarded.Inc()
	s.logf("aprofd: session %s: discarding unusable checkpoint: %v", id, err)
	s.ckpts.Drop(id)
}

// commitCheckpoint makes one checkpoint durable: the node's store holds it
// and, in replicated mode, the replica set confirms it. A failure fails
// the session transiently — the unconfirmed events were never acked, so a
// reconnect (to this node or a failover target) resumes from the last
// confirmed checkpoint.
func (s *Server) commitCheckpoint(id string, doc []byte, seq uint64) error {
	start := time.Now()
	err := s.ckpts.Replicate(id, seq, doc)
	if s.opts.Replica != nil {
		s.m.replicate.Observe(uint64(time.Since(start).Microseconds()))
		if err != nil {
			s.m.replicaFailed.Inc()
		} else {
			s.m.replicaPushed.Inc()
		}
	}
	if err != nil {
		return fmt.Errorf("server: committing checkpoint at %d events: %w", seq, err)
	}
	return nil
}

// failSession classifies a session error, records metrics, and tells the
// client whether reconnecting (to resume from the checkpoint) can help.
func (s *Server) failSession(conn net.Conn, id string, metered *meteredReader, err error) {
	switch {
	case s.ctx.Err() != nil:
		// Drain: the pipeline already wrote the final checkpoint.
		s.m.sessionsDrained.Inc()
		s.logf("aprofd: session %s: drained at checkpoint", id)
		writeError(conn, s.opts.WriteTimeout, true, "server draining; reconnect to resume")
	case errors.Is(err, errEventLimit):
		s.m.sessionsFailed.Inc()
		writeError(conn, s.opts.WriteTimeout, false, err.Error())
	case metered.tripped:
		// The byte budget is per connection and progress is checkpointed,
		// so a reconnect may still finish the session: transient.
		s.m.sessionsFailed.Inc()
		writeError(conn, s.opts.WriteTimeout, true, fmt.Sprintf("connection byte limit exceeded after %d bytes", metered.n))
	default:
		s.m.sessionsFailed.Inc()
		s.logf("aprofd: session %s: %v", id, err)
		writeError(conn, s.opts.WriteTimeout, true, err.Error())
	}
}

// acquireSlot claims a session slot and the session id, atomically. The
// admission controller decides how many slots currently exist.
func (s *Server) acquireSlot(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.adm.admit(len(s.activeIDs)) {
		return false
	}
	if _, busy := s.activeIDs[id]; busy {
		// Two live connections for one id would race on the session's
		// checkpoints; the newcomer is shed like any overload.
		return false
	}
	s.activeIDs[id] = struct{}{}
	return true
}

func (s *Server) releaseSlot(id string) {
	s.mu.Lock()
	delete(s.activeIDs, id)
	s.mu.Unlock()
}

// storeResult serializes a completed session's profile, writes it to the
// ResultDir and the Store, and only then publishes it: a profile the daemon
// failed to store is never served.
func (s *Server) storeResult(id string, ps *core.Profiles, delivered uint64, resumed bool) error {
	start := time.Now()
	doc, err := profio.Marshal(ps)
	if err != nil {
		return err
	}
	s.m.resultEncode.Observe(uint64(time.Since(start).Microseconds()))
	if s.opts.ResultDir != "" {
		path := filepath.Join(s.opts.ResultDir, id+".json")
		if err := backend.WriteAtomic(path, doc, 0o644); err != nil {
			return err
		}
	}
	if s.opts.Store != nil {
		start := time.Now()
		if err := s.opts.Store.SaveProfile(id, doc); err != nil {
			return err
		}
		s.m.resultSave.Observe(uint64(time.Since(start).Microseconds()))
	}
	s.publishResult(&SessionResult{ID: id, Delivered: delivered, Resumed: resumed, Profile: doc})
	return nil
}

// publishResult makes res the result Result serves for its id. With a
// Store, res joins the window of the MaxSessions most recently stored
// results as its newest entry, replacing any copy of the same id, and the
// oldest entries beyond the window are dropped: the store already holds
// them.
func (s *Server) publishResult(res *SessionResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.results[res.ID]; ok {
		s.resultBytes -= int64(len(old.Profile))
		if i := slices.Index(s.resultOrder, res.ID); i >= 0 {
			s.resultOrder = slices.Delete(s.resultOrder, i, i+1)
		}
	}
	s.results[res.ID] = res
	s.resultBytes += int64(len(res.Profile))
	if s.opts.Store != nil {
		s.resultOrder = append(s.resultOrder, res.ID)
		for len(s.resultOrder) > s.opts.MaxSessions {
			evict := s.resultOrder[0]
			s.resultOrder = s.resultOrder[1:]
			s.resultBytes -= int64(len(s.results[evict].Profile))
			delete(s.results, evict)
		}
	}
	s.m.resultsCached.Set(int64(len(s.results)))
	s.m.resultsBytes.Set(s.resultBytes)
}

// ActiveSessions reports the number of sessions currently in flight.
func (s *Server) ActiveSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.activeIDs)
}

// Result returns a completed session's outcome. With Options.Store set,
// sessions not held in memory — completed before a daemon restart, or
// dropped from the window of recent results — are served from the
// repository; their Delivered/Resumed metadata is zero: only results still
// in memory carry it.
func (s *Server) Result(id string) (*SessionResult, bool) {
	s.mu.Lock()
	r, ok := s.results[id]
	s.mu.Unlock()
	if ok || s.opts.Store == nil {
		return r, ok
	}
	profile, err := s.opts.Store.GetSession(id)
	if err != nil {
		return nil, false
	}
	return &SessionResult{ID: id, Profile: profile}, true
}

// ResultIDs lists completed sessions in lexical order: the results held in
// memory merged with the profile repository's, when one is configured.
func (s *Server) ResultIDs() []string {
	s.mu.Lock()
	seen := make(map[string]struct{}, len(s.results))
	for id := range s.results {
		seen[id] = struct{}{}
	}
	s.mu.Unlock()
	if s.opts.Store != nil {
		for _, id := range s.opts.Store.SessionIDs() {
			seen[id] = struct{}{}
		}
	}
	ids := make([]string, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// ProfilesHandler serves completed profiles over HTTP: an index of session
// ids at the mount point, a session's profile JSON beneath it. Mount at
// "/profiles/" on the debug mux.
func (s *Server) ProfilesHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/profiles/")
		id = strings.Trim(id, "/")
		w.Header().Set("Content-Type", "application/json")
		if id == "" {
			index := struct {
				Sessions []string `json:"sessions"`
			}{Sessions: s.ResultIDs()}
			json.NewEncoder(w).Encode(index)
			return
		}
		res, ok := s.Result(id)
		if !ok {
			http.Error(w, fmt.Sprintf(`{"error": "no profile for session %q"}`, id), http.StatusNotFound)
			return
		}
		w.Write(res.Profile)
	})
}

// Shutdown drains the daemon gracefully: stop accepting, cancel every
// session context (each pipeline stops at its next batch boundary and
// writes a final checkpoint), and nudge blocked reads awake. It waits for
// all sessions to finish until ctx expires, then force-closes the
// stragglers' connections (their periodic/final checkpoints still bound
// the loss to the last profiled batch).
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	if s.ln != nil {
		s.ln.Close()
	}
	s.cancel()
	// A session blocked in conn.Read cannot observe the cancelled context;
	// expiring its read deadline turns the block into a timely error while
	// keeping the conn writable for the "draining" error record.
	s.mu.Lock()
	for conn := range s.conns {
		conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.closeConns()
		<-done
		return ctx.Err()
	}
}

// Abort hard-stops the daemon: no drain notifications, connections closed
// immediately — the in-process stand-in for SIGKILL. Sessions lose nothing
// past their last written checkpoint. Safe to call from any goroutine,
// including a session's own hooks; it does not wait (use Wait).
func (s *Server) Abort() {
	s.aborted.Store(true)
	s.draining.Store(true)
	if s.ln != nil {
		s.ln.Close()
	}
	s.cancel()
	s.closeConns()
}

// Wait blocks until the accept loop and all sessions have finished.
func (s *Server) Wait() {
	s.wg.Wait()
}

func (s *Server) closeConns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for conn := range s.conns {
		conn.Close()
	}
}
