package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"aprof"
	"aprof/internal/core"
	"aprof/internal/obs"
	"aprof/internal/profio"
	"aprof/internal/replica"
	"aprof/internal/repo"
	"aprof/internal/repo/backend"
	"aprof/internal/server"
	"aprof/internal/server/client"
	"aprof/internal/trace"
	"aprof/internal/workloads"
)

// ingestSpec configures one ingest workload.
type ingestSpec struct {
	replicated bool
	nodes      int
	clients    int
	// scale multiplies the rounds of every suite benchmark's trace.
	scale int
	// batch and every are the daemon's -batch and -checkpoint-every
	// (0: aprofd's defaults).
	batch, every int
	// prepop is how many sessions the untimed run before set-up stores;
	// the timed phase reads them back.
	prepop int
	// idPool is the number of session ids each client cycles through. The
	// daemon keeps every completed profile in memory and each store
	// snapshot lists every session, so unbounded ids would make memory
	// and save cost grow with throughput.
	idPool int
}

func newIngestBulk(o options) workload {
	return &ingest{o: o, spec: ingestSpec{nodes: 1, clients: 2, scale: 10, prepop: 8, idPool: 16}}
}

func newIngestReplicated(o options) workload {
	return &ingest{o: o, spec: ingestSpec{replicated: true, nodes: 2, clients: 1, scale: 1, batch: 256, every: 2, prepop: 8, idPool: 16}}
}

// sessionInput is one pre-encoded APT2 trace with its oracle.
type sessionInput struct {
	name   string
	enc    []byte
	ref    []byte // profio JSON of the offline core.Run
	events int
	replay replayStats
}

// prepopSession is a session stored by the untimed run before set-up.
type prepopSession struct {
	id   string
	in   *sessionInput
	node int
}

// node is one in-process aprofd.
type node struct {
	dir   string
	reg   *obs.Registry
	store *repo.Repository
	rep   *replica.Node
	srv   *server.Server
}

// ingest is the ingest-bulk and ingest-replicated-rw workload: aprofd
// nodes configured as the daemon configures them, loaded by closed-loop
// client.Run uploads.
type ingest struct {
	o       options
	spec    ingestSpec
	sources []*sessionInput
	prepops []prepopSession
	addrs   []string
	nodes   []*node
	cursor  atomic.Int64
	openMS  []float64

	mu   sync.Mutex
	recs []*opRecord
}

func (w *ingest) clients() int { return w.spec.clients }
func (w *ingest) cycle() int   { return len(w.sources) }

func (w *ingest) cfg() core.Config { return aprof.DefaultConfig() }

// batchSize and every are the daemon's pipeline batch size and checkpoint
// cadence (in batches), with aprofd's defaults filled in.
func (w *ingest) batchSize() int {
	if w.spec.batch > 0 {
		return w.spec.batch
	}
	return profio.DefaultBatchSize
}

func (w *ingest) every() int {
	if w.spec.every > 0 {
		return w.spec.every
	}
	return profio.DefaultCheckpointEvery
}

// sizeBand is how far a session trace's event count may stray from its
// suite benchmark's canonical count. A trace's size follows its seed (by
// about ±8% at the default rounds); holding every trace near its canonical
// size keeps the work per pass the same for every workload seed.
const sizeBand = 0.02

// prepare draws one session trace per suite benchmark from the seed,
// encodes it, builds its offline reference profile, and stores the
// read-back sessions with an untimed run of the nodes.
func (w *ingest) prepare() error {
	rng := rand.New(rand.NewSource(w.o.Seed))
	for _, b := range workloads.FullSuite() {
		b = b.Scaled(w.spec.scale)
		if w.o.Small {
			b.Rounds = max(b.Rounds/20, 2)
		}
		tr := drawTrace(b, rng)
		in := &sessionInput{name: b.Name, events: len(tr.Events)}
		var enc bytes.Buffer
		if err := trace.WriteBinary2(&enc, tr); err != nil {
			return err
		}
		in.enc = enc.Bytes()
		ps, err := core.Run(tr, w.cfg())
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		var ref bytes.Buffer
		if err := profio.Write(&ref, ps); err != nil {
			return err
		}
		in.ref = ref.Bytes()
		if w.o.Trace {
			if err := in.replayAll(w.cfg(), w.batchSize(), w.every(), w.o.DataDir); err != nil {
				return err
			}
		}
		w.sources = append(w.sources, in)
	}
	for i := 0; i < w.spec.nodes; i++ {
		n := &node{dir: filepath.Join(w.o.DataDir, fmt.Sprintf("node%d", i))}
		for _, sub := range []string{"ckpt", "store"} {
			if err := os.MkdirAll(filepath.Join(n.dir, sub), 0o755); err != nil {
				return err
			}
		}
		w.nodes = append(w.nodes, n)
	}

	if err := w.start(nil); err != nil {
		return err
	}
	for i := 0; i < w.spec.prepop; i++ {
		p := prepopSession{id: fmt.Sprintf("pre-%02d", i), in: w.sources[i%len(w.sources)]}
		res, nd, err := w.upload(p.id, p.in, nil, nil, int64(i))
		if err == nil {
			err = w.check(nd, p.id, p.in, res)
		}
		if err != nil {
			w.stop()
			return fmt.Errorf("storing session %s: %w", p.id, err)
		}
		p.node = nd
		w.prepops = append(w.prepops, p)
	}
	return w.stop()
}

// drawTrace builds b with seeds drawn from rng until the trace's event
// count is within sizeBand of the count under b's own seed (the closest
// of a bounded number of draws otherwise).
func drawTrace(b workloads.Benchmark, rng *rand.Rand) *trace.Trace {
	want := float64(len(b.Build().Events))
	var best *trace.Trace
	bestDev := 0.0
	for i := 0; i < 64; i++ {
		b.Seed = rng.Int63()
		tr := b.Build()
		dev := math.Abs(float64(len(tr.Events))/want - 1)
		if best == nil || dev < bestDev {
			best, bestDev = tr, dev
		}
		if dev <= sizeBand {
			break
		}
	}
	return best
}

// start opens every node's store and starts the nodes, as aprofd does
// with -checkpoint-dir and -store (plus -replicate-peers when
// replicated).
func (w *ingest) start(tr *tracer) error {
	lns := make([]net.Listener, len(w.nodes))
	for i := range w.nodes {
		addr := "127.0.0.1:0"
		if w.addrs != nil {
			addr = w.addrs[i]
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return err
		}
		lns[i] = ln
	}
	if w.addrs == nil {
		for _, ln := range lns {
			w.addrs = append(w.addrs, ln.Addr().String())
		}
	}
	for i, n := range w.nodes {
		if err := w.startNode(i, n, lns[i], tr); err != nil {
			for _, l := range lns[i+1:] {
				l.Close()
			}
			w.stop()
			return err
		}
	}
	return nil
}

func (w *ingest) startNode(i int, n *node, ln net.Listener, tr *tracer) error {
	n.reg = obs.NewRegistry()
	local, err := backend.OpenLocal(filepath.Join(n.dir, "store"))
	if err != nil {
		ln.Close()
		return err
	}
	var be backend.Backend = local
	if tr != nil {
		be = &tracedBackend{inner: local, tr: tr}
	}
	t0 := time.Now()
	n.store, err = repo.OpenOrInit(be, repo.Options{Obs: n.reg})
	if err != nil {
		ln.Close()
		return err
	}
	w.openMS = append(w.openMS, ms(time.Since(t0)))
	opts := server.Options{
		CheckpointDir:   filepath.Join(n.dir, "ckpt"),
		Store:           n.store,
		Config:          w.cfg(),
		BatchSize:       w.spec.batch,
		CheckpointEvery: w.spec.every,
		Obs:             n.reg,
	}
	if w.spec.replicated {
		n.rep, err = replica.NewNode(replica.Options{
			Self:    w.addrs[i],
			Peers:   w.addrs,
			Dir:     filepath.Join(n.dir, "store", "replica"),
			Backend: be,
			Obs:     n.reg,
		})
		if err != nil {
			ln.Close()
			return err
		}
		opts.Replica = n.rep
		if tr != nil {
			opts.Replica = &tracedReplica{inner: n.rep, tr: tr}
		}
	}
	if tr != nil {
		opts.OnSessionBatch = func(session string, batch int, delivered uint64) {
			now := tr.now()
			tr.record(event{kind: evBatch, session: session, start: now, end: now, batch: batch})
		}
	}
	n.srv = server.New(opts)
	n.srv.Serve(ln)
	return nil
}

// stop closes the replica nodes, drains every server, then closes the
// stores. Closing the replica nodes first ends the peers' replication
// connections: a server drain nudges a blocked read once, and a
// replication read re-armed after that nudge would hold the drain for
// the whole idle timeout.
func (w *ingest) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, n := range w.nodes {
		if n.rep != nil {
			keep(n.rep.Close())
			n.rep = nil
		}
	}
	for _, n := range w.nodes {
		if n.srv != nil {
			keep(n.srv.Shutdown(ctx))
			n.srv = nil
		}
	}
	for _, n := range w.nodes {
		if n.store != nil {
			keep(n.store.Close())
			n.store = nil
		}
	}
	return first
}

// upload streams one session through client.Run, routed by a
// ClusterDialer when replicated, and returns the node that completed it.
func (w *ingest) upload(id string, in *sessionInput, rec *opRecord, tr *tracer, seed int64) (client.Result, int, error) {
	opts := client.Options{
		SessionID: id,
		Open:      func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(in.enc)), nil },
		Seed:      seed,
	}
	var cd *client.ClusterDialer
	dial := func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", w.addrs[0])
	}
	if w.spec.replicated {
		var err error
		cd, err = client.NewClusterDialer(client.ClusterOptions{Nodes: w.addrs, SessionID: id})
		if err != nil {
			return client.Result{}, 0, err
		}
		opts.Dialer = cd
		dial = cd.DialContext
	} else {
		opts.Addr = w.addrs[0]
	}
	if rec != nil {
		opts.Dial = func(ctx context.Context) (net.Conn, error) {
			rec.dialed(tr.now())
			conn, err := dial(ctx)
			if err != nil {
				return nil, err
			}
			return &tracedConn{Conn: conn, rec: rec, tr: tr}, nil
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := client.Run(ctx, opts)
	if err != nil {
		return res, 0, err
	}
	nd := 0
	if cd != nil {
		nd = w.nodeIndex(cd.Node())
	}
	return res, nd, nil
}

func (w *ingest) nodeIndex(addr string) int {
	for i, a := range w.addrs {
		if a == addr {
			return i
		}
	}
	return 0
}

// check compares a completed session with its oracle: every event
// delivered, and the served profile byte-identical to the offline one.
func (w *ingest) check(nd int, id string, in *sessionInput, res client.Result) error {
	if res.Delivered != uint64(in.events) {
		return fmt.Errorf("session %s (%s): %d events delivered, want %d", id, in.name, res.Delivered, in.events)
	}
	r, ok := w.nodes[nd].srv.Result(id)
	if !ok {
		return fmt.Errorf("session %s (%s): no result on node %d", id, in.name, nd)
	}
	if !bytes.Equal(r.Profile, in.ref) {
		return fmt.Errorf("session %s (%s): profile differs from the offline reference", id, in.name)
	}
	return nil
}

func (w *ingest) op(c, n int, id int64, tr *tracer) (time.Duration, error) {
	in := w.sources[int(w.cursor.Add(1)-1)%len(w.sources)]
	sid := fmt.Sprintf("c%d-%02d", c, n%w.spec.idPool)
	var rec *opRecord
	if tr != nil {
		rec = &opRecord{op: id, session: sid, in: in, start: tr.now()}
	}
	start := time.Now()
	res, nd, err := w.upload(sid, in, rec, tr, id)
	lat := time.Since(start)
	if err != nil {
		return 0, fmt.Errorf("session %s (%s): %w", sid, in.name, err)
	}
	if rec != nil {
		rec.end = tr.now()
		rec.reconnects = res.Reconnects
		w.mu.Lock()
		w.recs = append(w.recs, rec)
		w.mu.Unlock()
	}
	return lat, w.check(nd, sid, in, res)
}

// read fetches one stored session, one that exists only in the restarted
// store, through Server.Result (what /profiles/<id> serves).
func (w *ingest) read(c, n int, id int64, tr *tracer) (time.Duration, error) {
	p := w.prepops[(n*w.spec.clients+c)%len(w.prepops)]
	if tr != nil {
		tr.bindOp(id)
		defer tr.bindOp(0)
	}
	start := time.Now()
	r, ok := w.nodes[p.node].srv.Result(p.id)
	d := time.Since(start)
	if !ok {
		return 0, fmt.Errorf("stored session %s not served by node %d", p.id, p.node)
	}
	if !bytes.Equal(r.Profile, p.in.ref) {
		return 0, fmt.Errorf("stored session %s (%s): profile differs from the offline reference", p.id, p.in.name)
	}
	return d, nil
}

func (w *ingest) counters() map[string]uint64 {
	out := make(map[string]uint64)
	for _, n := range w.nodes {
		if n.reg == nil {
			continue
		}
		snap := n.reg.Snapshot()
		for _, c := range []struct{ scope, name string }{
			{server.ObsScopeServer, "sessions_failed"},
			{server.ObsScopeServer, "sessions_shed"},
			{replica.ObsScopeReplica, "pushes_failed"},
			{replica.ObsScopeReplica, "peer_redials"},
			{repo.ObsScopeRepo, "bytes_written"},
			{repo.ObsScopeRepo, "bytes_deduped"},
		} {
			if s := snap.Scope(c.scope); s != nil {
				out[c.scope+"."+c.name] += s.Counter(c.name)
			}
		}
	}
	return out
}

// ledger turns the traced phase's records and wrapper events into span
// trees and per-layer metrics.
func (w *ingest) ledger(tr *tracer, ph *phase, m metrics) {
	w.mu.Lock()
	recs := w.recs
	w.recs = nil
	w.mu.Unlock()

	var finish, gaps, acks, repMS, pushes, pushKB, saveMS, saves []float64
	reconnects := 0
	for _, r := range recs {
		w.spans(tr, r)
		r.mu.Lock()
		if r.final > 0 && r.lastWrite > 0 {
			finish = append(finish, ms(time.Duration(r.final-r.lastWrite)))
		}
		for i := 1; i < len(r.acks); i++ {
			gaps = append(gaps, ms(time.Duration(r.acks[i]-r.acks[i-1])))
		}
		acks = append(acks, float64(len(r.acks)))
		r.mu.Unlock()
		reconnects += r.reconnects

		var d time.Duration
		var kb float64
		reps := tr.eventsOf(evReplicate, r.session, r.start, r.end)
		for _, e := range reps {
			d += time.Duration(e.end - e.start)
			kb += float64(e.bytes) / 1024
		}
		repMS = append(repMS, ms(d))
		pushes = append(pushes, float64(len(reps)))
		pushKB = append(pushKB, kb)

		d = 0
		ss := tr.eventsOf(evSave, r.session, r.start, r.end)
		for _, e := range ss {
			d += time.Duration(e.end - e.start)
		}
		saveMS = append(saveMS, ms(d))
		saves = append(saves, float64(len(ss)))
	}
	// Loads come from the reads, which are bound to their op.
	loads := make(map[int64]time.Duration)
	tr.mu.Lock()
	for _, e := range tr.events {
		if e.kind == evLoad && e.op != 0 {
			loads[e.op] += time.Duration(e.end - e.start)
		}
	}
	tr.mu.Unlock()
	var loadMS []float64
	for _, r := range recs {
		loadMS = append(loadMS, ms(loads[r.op]))
	}

	m.set("server.finish_ms", median(finish), "ms")
	m.set("server.ack_gap_ms", median(gaps), "ms")
	m.set("server.acks", mean(acks), "count")
	m.set("server.reconnects", float64(reconnects), "count")
	m.set("server.sessions_failed", ph.counter("server.sessions_failed"), "count")
	m.set("server.sessions_shed", ph.counter("server.sessions_shed"), "count")
	if w.spec.replicated {
		m.set("replica.replicate_ms", median(repMS), "ms")
		m.set("replica.pushes", mean(pushes), "count")
		m.set("replica.push_kb", mean(pushKB), "KB")
		m.set("replica.pushes_failed", ph.counter("replica.pushes_failed"), "count")
		m.set("replica.peer_redials", ph.counter("replica.peer_redials"), "count")
	}
	m.set("repo.backend_save_ms", median(saveMS), "ms")
	m.set("repo.backend_saves", mean(saves), "count")
	m.set("repo.backend_load_ms", median(loadMS), "ms")
	written, deduped := ph.counter("repo.bytes_written"), ph.counter("repo.bytes_deduped")
	if written+deduped > 0 {
		m.set("repo.dedup_ratio", deduped/(written+deduped), "ratio")
	}
	m.set("repo.open_ms", median(w.openMS), "ms")

	// The analysis layers, from the isolated replay of each input. The
	// closed loop cycles through the inputs, so their mean is the mean
	// per session.
	var rs []replayStats
	for _, in := range w.sources {
		rs = append(rs, in.replay)
	}
	avg := func(f func(r replayStats) float64) float64 {
		var sum float64
		for _, r := range rs {
			sum += f(r)
		}
		return sum / float64(len(rs))
	}
	events := avg(func(r replayStats) float64 { return float64(r.events) })
	profileMS := avg(func(r replayStats) float64 { return r.profileMS })
	m.set("trace.decode_ms", avg(func(r replayStats) float64 { return r.decodeMS }), "ms")
	m.set("trace.bytes_per_event", avg(func(r replayStats) float64 { return float64(r.encBytes) })/events, "B")
	m.set("core.profile_ms", profileMS, "ms")
	m.set("core.ns_per_event", profileMS*1e6/events, "ns")
	m.set("core.state_kb", avg(func(r replayStats) float64 { return r.stateKB }), "KB")
	m.set("core.checkpoint_ms", avg(func(r replayStats) float64 { return r.checkpointMS }), "ms")
	m.set("core.checkpoint_kb", avg(func(r replayStats) float64 { return r.checkpointKB }), "KB")
	m.set("profio.json_ms", avg(func(r replayStats) float64 { return r.jsonMS }), "ms")
	m.set("profio.json_kb", avg(func(r replayStats) float64 { return r.jsonKB }), "KB")
	m.set("profio.decode_busy_ms", avg(func(r replayStats) float64 { return r.decodeBusyMS }), "ms")
	m.set("profio.profile_busy_ms", avg(func(r replayStats) float64 { return r.profileBusyMS }), "ms")
	m.set("profio.checkpoints", avg(func(r replayStats) float64 { return r.checkpoints }), "count")
}

// spans builds one upload's span tree:
//
//	op (client)
//	  server.session (server): first dial to the completion record
//	    core.batch (core): previous batch hook, or the handshake, to this one
//	      core.checkpoint (core_checkpoint, replayed): at boundary batches
//	    replica.replicate (replica)
//	    repo.store (repo): last batch to the completion record
//	      profio.Write (profio, replayed)
//	      backend.Save (repo), replica.Drop (replica)
func (w *ingest) spans(tr *tracer, r *opRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	o := &opSpans{op: r.op}
	root := o.add(-1, "op", "client", r.start, r.end)
	if len(r.dials) == 0 || r.final == 0 {
		tr.addOp(o)
		return
	}
	sess := o.add(root, "server.session", "server", r.dials[0], r.final)
	for _, e := range tr.eventsOf(evRecover, r.session, r.start, r.end) {
		o.add(sess, "replica.Recover", "replica", e.start, e.end)
	}
	reps := tr.eventsOf(evReplicate, r.session, r.start, r.end)
	prev := r.resp
	rp := r.in.replay
	hooks := tr.eventsOf(evBatch, r.session, r.start, r.end)
	for i, h := range hooks {
		b := o.add(sess, "core.batch", "core", prev, h.end)
		if h.batch%w.every() == 0 && rp.checkpointEach > 0 {
			c := o.add(b, "core.checkpoint", "core_checkpoint", h.end-int64(rp.checkpointEach), h.end)
			o.spans[c].Replayed = true
		}
		prev = h.end
		// The boundary's replication runs after the hook and before the
		// next batch is profiled.
		next := r.final
		if i+1 < len(hooks) {
			next = hooks[i+1].end
		}
		for _, e := range reps {
			if e.start >= h.end && e.start < next {
				o.add(sess, "replica.Replicate", "replica", e.start, e.end)
				prev = max(prev, e.end)
			}
		}
	}
	st := o.add(sess, "repo.store", "repo", prev, r.final)
	j := o.add(st, "profio.Write", "profio", prev, prev+int64(rp.jsonMS*float64(time.Millisecond)))
	o.spans[j].Replayed = true
	for _, e := range tr.eventsOf(evSave, r.session, prev, r.final) {
		o.add(st, "backend.Save", "repo", e.start, e.end)
	}
	for _, e := range tr.eventsOf(evDrop, r.session, prev, r.final) {
		o.add(st, "replica.Drop", "replica", e.start, e.end)
	}
	tr.addOp(o)
}

// replayStats are one input's layer costs, measured by replaying it in
// isolation (medians of several replays).
type replayStats struct {
	events         int
	encBytes       int
	decodeMS       float64
	profileMS      float64
	stateKB        float64
	checkpointMS   float64       // per session
	checkpointKB   float64       // per checkpoint
	boundaries     int           // checkpoints the replay wrote
	checkpointEach time.Duration // per checkpoint
	jsonMS         float64
	jsonKB         float64
	decodeBusyMS   float64
	profileBusyMS  float64
	checkpoints    float64
}

const replays = 3

// replayAll measures the input's layer costs: trace.ReadBinary, the
// profiler over the events with a WriteCheckpoint at every boundary the
// daemon crosses, profio.Write of the result, and the daemon's own
// streaming pipeline with an observability registry attached (its
// batch_decode_us, batch_profile_us and checkpoints metrics).
func (in *sessionInput) replayAll(cfg core.Config, batch, every int, dir string) error {
	var runs []replayStats
	for i := 0; i < replays; i++ {
		r, err := in.replayOnce(cfg, batch, every, filepath.Join(dir, "replay.apck"))
		if err != nil {
			return fmt.Errorf("replaying %s: %w", in.name, err)
		}
		runs = append(runs, r)
	}
	pick := func(f func(r *replayStats) *float64) {
		var xs []float64
		for i := range runs {
			xs = append(xs, *f(&runs[i]))
		}
		*f(&in.replay) = median(xs)
	}
	in.replay = runs[0]
	for _, f := range []func(r *replayStats) *float64{
		func(r *replayStats) *float64 { return &r.decodeMS },
		func(r *replayStats) *float64 { return &r.profileMS },
		func(r *replayStats) *float64 { return &r.checkpointMS },
		func(r *replayStats) *float64 { return &r.jsonMS },
		func(r *replayStats) *float64 { return &r.decodeBusyMS },
		func(r *replayStats) *float64 { return &r.profileBusyMS },
	} {
		pick(f)
	}
	if in.replay.boundaries > 0 {
		in.replay.checkpointEach = time.Duration(in.replay.checkpointMS / float64(in.replay.boundaries) * float64(time.Millisecond))
	}
	return nil
}

func (in *sessionInput) replayOnce(cfg core.Config, batch, every int, ckptPath string) (replayStats, error) {
	r := replayStats{encBytes: len(in.enc)}
	t0 := time.Now()
	tr, err := trace.ReadBinary(bytes.NewReader(in.enc))
	if err != nil {
		return r, err
	}
	r.decodeMS = ms(time.Since(t0))
	r.events = len(tr.Events)

	p := core.NewProfiler(tr.Symbols, cfg)
	boundary := batch * every
	var ckpt bytes.Buffer
	var ckptTime time.Duration
	var ckptBytes, nckpt int
	t0 = time.Now()
	for i := range tr.Events {
		if err := p.HandleEvent(&tr.Events[i]); err != nil {
			return r, err
		}
		if (i+1)%boundary == 0 {
			ckpt.Reset()
			c0 := time.Now()
			if err := p.WriteCheckpoint(&ckpt, core.StreamState{EventsDelivered: uint64(i + 1)}); err != nil {
				return r, err
			}
			ckptTime += time.Since(c0)
			ckptBytes += ckpt.Len()
			nckpt++
		}
	}
	r.profileMS = ms(time.Since(t0) - ckptTime)
	r.checkpointMS = ms(ckptTime)
	r.boundaries = nckpt
	if nckpt > 0 {
		r.checkpointKB = float64(ckptBytes) / 1024 / float64(nckpt)
	}
	r.stateKB = float64(p.SpaceBytes()) / 1024
	ps, err := p.Finish()
	if err != nil {
		return r, err
	}
	var js bytes.Buffer
	t0 = time.Now()
	if err := profio.Write(&js, ps); err != nil {
		return r, err
	}
	r.jsonMS = ms(time.Since(t0))
	r.jsonKB = float64(js.Len()) / 1024
	if !bytes.Equal(js.Bytes(), in.ref) {
		return r, fmt.Errorf("replayed profile differs from the offline reference")
	}

	reg := obs.NewRegistry()
	scfg := cfg
	scfg.Obs = reg
	if _, err := profio.ProfileStream(context.Background(), bytes.NewReader(in.enc), scfg, profio.StreamOptions{
		BatchSize:       batch,
		CheckpointEvery: every,
		CheckpointPath:  ckptPath,
	}); err != nil {
		return r, err
	}
	os.Remove(ckptPath)
	s := reg.Snapshot().Scope(profio.ObsScopeProfio)
	if s != nil {
		if h := s.Histogram("batch_decode_us"); h != nil {
			r.decodeBusyMS = float64(h.Sum) / 1000
		}
		if h := s.Histogram("batch_profile_us"); h != nil {
			r.profileBusyMS = float64(h.Sum) / 1000
		}
		r.checkpoints = float64(s.Counter("checkpoints"))
	}
	return r, nil
}
