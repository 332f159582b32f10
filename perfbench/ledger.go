package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Layers of the per-layer ledger, named after the repository's modules.
// "server" and "client" are the residual: framing, hand-off and ack cost
// that no named layer's span covers.
var ledgerLayers = []string{"vm", "core", "core_checkpoint", "fit", "profio", "replica", "repo"}

// span is one timed interval of a traced op. Spans of one op share its id
// (the trace id); Parent indexes the op's span list, -1 for the root.
type span struct {
	Op     int64  `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Replayed marks a span whose duration was measured by replaying the
	// op's input in isolation, placed where the live span would sit.
	Replayed bool `json:"replayed,omitempty"`
}

// opSpans builds the span tree of one op.
type opSpans struct {
	op    int64
	spans []span
}

// add appends a span (clamped to its parent) and returns its index.
func (o *opSpans) add(parent int, name, layer string, start, end int64) int {
	if parent >= 0 {
		p := o.spans[parent]
		start = min(max(start, p.Start), p.End)
		end = min(max(end, start), p.End)
	}
	end = max(end, start)
	o.spans = append(o.spans, span{Op: o.op, ID: len(o.spans), Parent: parent, Name: name, Layer: layer, Start: start, End: end})
	return len(o.spans) - 1
}

// selfTimes returns each layer's self time in the op: every span's
// duration minus the part of it its children cover.
func (o *opSpans) selfTimes() map[string]time.Duration {
	children := make([][]int, len(o.spans))
	for i, s := range o.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range o.spans {
		var iv [][2]int64
		for _, c := range children[i] {
			iv = append(iv, [2]int64{o.spans[c].Start, o.spans[c].End})
		}
		out[s.Layer] += time.Duration(s.End - s.Start - covered(iv))
	}
	return out
}

// covered returns the total length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	first := true
	var start int64
	for _, x := range iv {
		if first || x[0] > end {
			if !first {
				total += end - start
			}
			start, end, first = x[0], x[1], false
			continue
		}
		end = max(end, x[1])
	}
	if !first {
		total += end - start
	}
	return total
}

// tracer keeps a traced phase's spans and raw wrapper events in memory;
// they are written out when the run ends.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	ops    []*opSpans
	events []event
	// gidSession maps a server session goroutine to its session id (from
	// the batch hook), and gidOp a client goroutine to the op whose read
	// it is running, so that backend calls can be attributed.
	gidSession map[uint64]string
	gidOp      map[uint64]int64
}

// Kinds of wrapper event.
const (
	evBatch = iota
	evReplicate
	evRecover
	evDrop
	evSave
	evLoad
)

// event is one call observed by a tracing wrapper or hook.
type event struct {
	kind    int
	session string // server session, when known
	op      int64  // client op, when known
	start   int64
	end     int64
	bytes   int
	batch   int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), gidSession: make(map[uint64]string), gidOp: make(map[uint64]int64)}
}

// reset drops everything recorded so far (the traced warm-up).
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops, t.events = nil, nil
	t.gidOp = make(map[uint64]int64)
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) addOp(o *opSpans) {
	t.mu.Lock()
	t.ops = append(t.ops, o)
	t.mu.Unlock()
}

// record stores a wrapper event, resolving the calling goroutine to its
// session or op when the event does not name one.
func (t *tracer) record(e event) {
	gid := goid()
	t.mu.Lock()
	defer t.mu.Unlock()
	if e.kind == evBatch {
		t.gidSession[gid] = e.session
	}
	if e.session == "" {
		e.session = t.gidSession[gid]
	}
	if e.op == 0 {
		e.op = t.gidOp[gid]
	}
	t.events = append(t.events, e)
}

// bindOp attributes the calling goroutine's backend calls to op until
// unbound (op 0).
func (t *tracer) bindOp(op int64) {
	gid := goid()
	t.mu.Lock()
	defer t.mu.Unlock()
	if op == 0 {
		delete(t.gidOp, gid)
	} else {
		t.gidOp[gid] = op
	}
}

// eventsOf returns the recorded events of one kind for a session inside
// [from, to], in start order.
func (t *tracer) eventsOf(kind int, session string, from, to int64) []event {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []event
	for _, e := range t.events {
		if e.kind == kind && e.session == session && e.end >= from && e.start <= to {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// ledgerMetrics reports each layer's median self time per op, the sum of
// the named layers against the traced median latency, and the residual.
func (t *tracer) ledgerMetrics(m metrics) {
	t.mu.Lock()
	defer t.mu.Unlock()
	perLayer := make(map[string][]float64)
	var sums, residuals, lat []float64
	nspans := 0
	for _, o := range t.ops {
		self := o.selfTimes()
		var sum time.Duration
		for _, l := range ledgerLayers {
			perLayer[l] = append(perLayer[l], ms(self[l]))
			sum += self[l]
		}
		root := o.spans[0]
		d := time.Duration(root.End - root.Start)
		sums = append(sums, ms(sum))
		residuals = append(residuals, ms(d-sum))
		lat = append(lat, ms(d))
		nspans += len(o.spans)
	}
	for _, l := range ledgerLayers {
		m.set("ledger."+l+"_ms", median(perLayer[l]), "ms")
	}
	m.set("ledger.layers_ms", median(sums), "ms")
	m.set("ledger.residual_ms", median(residuals), "ms")
	m.set("ledger.latency_p50_ms", median(lat), "ms")
	m.set("ledger.spans", float64(nspans), "count")
}

// writeSpans writes every span as one JSON line.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, o := range t.ops {
		for _, s := range o.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 42 [running]:"). Used only by the traced run's wrappers.
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	f := bytes.Fields(bytes.TrimPrefix(buf[:n], []byte("goroutine ")))
	if len(f) == 0 {
		return 0
	}
	id, _ := strconv.ParseUint(string(f[0]), 10, 64)
	return id
}

// layerUnits lists the unit of every per-layer metric a workload's ledger
// may set. A workload that never enters a layer reports its metrics as 0.
var layerUnits = map[string]string{
	"vm.run_ms": "ms", "vm.events": "count", "vm.ns_per_event": "ns",
	"core.profile_ms": "ms", "core.ns_per_event": "ns", "core.state_kb": "KB",
	"core.checkpoint_ms": "ms", "core.checkpoint_kb": "KB",
	"fit.ms": "ms", "fit.models": "count",
	"profio.json_ms": "ms", "profio.json_kb": "KB",
	"profio.decode_busy_ms": "ms", "profio.profile_busy_ms": "ms", "profio.checkpoints": "count",
	"trace.decode_ms": "ms", "trace.bytes_per_event": "B",
	"server.finish_ms": "ms", "server.ack_gap_ms": "ms", "server.acks": "count",
	"server.reconnects": "count", "server.sessions_failed": "count", "server.sessions_shed": "count",
	"replica.replicate_ms": "ms", "replica.pushes": "count", "replica.push_kb": "KB",
	"replica.pushes_failed": "count", "replica.peer_redials": "count",
	"repo.backend_save_ms": "ms", "repo.backend_saves": "count", "repo.backend_load_ms": "ms",
	"repo.dedup_ratio": "ratio", "repo.open_ms": "ms",
}

// fillAbsent reports every layer metric the workload did not set as 0.
func fillAbsent(m metrics) {
	for name, unit := range layerUnits {
		if _, ok := m[name]; !ok {
			m.set(name, 0, unit)
		}
	}
}
