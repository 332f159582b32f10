package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"aprof"
	"aprof/internal/core"
	"aprof/internal/obs"
	"aprof/internal/profio"
	"aprof/internal/trace"
	"aprof/internal/vm"
	"aprof/internal/workloads"
)

// vmKnobs names the loop bound of each MiniLang application that the seed
// scales: the pattern occurs exactly once in the program's source.
var vmKnobs = map[string]struct {
	pattern string
	base    int
}{
	"pipeline":  {"var n = %d;", 300},
	"server":    {"var n = %d;", 200},
	"mapreduce": {"var rounds = %d;", 8},
	"stencil":   {"round < %d;", 6},
	"vecnorm":   {"round < %d;", 8},
}

const (
	// vmScale multiplies every loop bound, so one op (all five programs)
	// takes tens of milliseconds.
	vmScale = 8
	// vmVariants is the number of loop-bound sets drawn from the seed.
	// They come in pairs scaled by 1+d and 1-d, so the mean work per op
	// is the same for every seed.
	vmVariants = 4
)

// vmInput is one program with seed-drawn loop bounds and its oracle.
type vmInput struct {
	name     string
	src      string
	output   []string
	ref      []byte   // profio JSON of the offline reference run
	fits     []string // every successful FitCost, formatted
	routines int
	events   int
	state    int64 // Profiler.SpaceBytes at the end of the run
}

// offlineVM is the offline-vm workload: one worker running the
// aprof -fit -json path (RunProgram, ProfileTrace, FitCost for every
// routine and metric, WriteProfiles) over all five applications per op.
type offlineVM struct {
	o        options
	variants [][]*vmInput
	cfg      aprof.Config
	outDir   string
}

func newOfflineVM(o options) workload { return &offlineVM{o: o} }

func (w *offlineVM) clients() int { return 1 }
func (w *offlineVM) cycle() int   { return vmVariants }

func (w *offlineVM) prepare() error {
	rng := rand.New(rand.NewSource(w.o.Seed))
	scale := vmScale
	if w.o.Small {
		scale = 1
	}
	w.outDir = filepath.Join(w.o.DataDir, "json")
	if err := os.MkdirAll(w.outDir, 0o755); err != nil {
		return err
	}
	progs := workloads.VMPrograms()
	deltas := make([][]float64, len(progs))
	for i := range progs {
		for v := 0; v < vmVariants; v += 2 {
			d := 0.02 + 0.08*rng.Float64()
			deltas[i] = append(deltas[i], d, -d)
		}
	}
	for v := 0; v < vmVariants; v++ {
		var set []*vmInput
		for i, p := range progs {
			knob, ok := vmKnobs[p.Name]
			if !ok {
				return fmt.Errorf("no loop bound known for program %q", p.Name)
			}
			old := fmt.Sprintf(knob.pattern, knob.base)
			if strings.Count(p.Source, old) != 1 {
				return fmt.Errorf("program %q: loop bound %q not found exactly once", p.Name, old)
			}
			bound := int(float64(knob.base*scale)*(1+deltas[i][v]) + 0.5)
			in := &vmInput{name: p.Name, src: strings.Replace(p.Source, old, fmt.Sprintf(knob.pattern, bound), 1)}
			if err := in.reference(); err != nil {
				return err
			}
			set = append(set, in)
		}
		w.variants = append(w.variants, set)
	}
	return nil
}

// reference builds the input's oracle: the offline profiler over the VM
// trace, checked against the streaming pipeline over the APT2 encoding.
func (in *vmInput) reference() error {
	res, err := vm.RunSource(in.src, vm.Options{})
	if err != nil {
		return fmt.Errorf("%s: %w", in.name, err)
	}
	in.output = res.Output
	in.events = len(res.Trace.Events)
	cfg := core.DefaultConfig()
	p := core.NewProfiler(res.Trace.Symbols, cfg)
	if err := p.Feed(res.Trace); err != nil {
		return fmt.Errorf("%s: %w", in.name, err)
	}
	in.state = p.SpaceBytes()
	ps, err := p.Finish()
	if err != nil {
		return fmt.Errorf("%s: %w", in.name, err)
	}
	var ref bytes.Buffer
	if err := profio.Write(&ref, ps); err != nil {
		return err
	}
	in.ref = ref.Bytes()
	in.fits = fitAll(ps)
	in.routines = len(ps.Routines())

	var enc bytes.Buffer
	if err := trace.WriteBinary2(&enc, res.Trace); err != nil {
		return err
	}
	streamed, err := profio.ProfileStream(context.Background(), &enc, cfg, profio.StreamOptions{})
	if err != nil {
		return fmt.Errorf("%s: streaming reference: %w", in.name, err)
	}
	var got bytes.Buffer
	if err := profio.Write(&got, streamed); err != nil {
		return err
	}
	if !bytes.Equal(got.Bytes(), in.ref) {
		return fmt.Errorf("%s: streaming profile differs from the offline reference", in.name)
	}
	return nil
}

// fitAll fits every routine under both metrics, as aprof -fit does,
// returning the fitted models (routines with too few input sizes have
// none).
func fitAll(ps *aprof.Profiles) []string {
	var out []string
	for _, id := range ps.Routines() {
		name := ps.Symbols.Name(id)
		for _, metric := range []aprof.Metric{aprof.RMS, aprof.DRMS} {
			if m, err := aprof.FitCost(ps, name, metric); err == nil {
				out = append(out, fmt.Sprintf("%+v", m))
			}
		}
	}
	return out
}

// start is aprof's own set-up before the first event: the observability
// registry -json attaches, and parsing and compiling each program.
func (w *offlineVM) start(*tracer) error {
	w.cfg = aprof.DefaultConfig()
	w.cfg.Obs = obs.NewRegistry()
	for _, in := range w.variants[0] {
		if _, err := vm.Compile(in.src); err != nil {
			return fmt.Errorf("%s: %w", in.name, err)
		}
	}
	return nil
}

func (w *offlineVM) stop() error { return nil }

func (w *offlineVM) op(c, n int, id int64, tr *tracer) (time.Duration, error) {
	set := w.variants[n%len(w.variants)]
	var o *opSpans
	var root int
	if tr != nil {
		o = &opSpans{op: id}
		root = o.add(-1, "op", "client", tr.now(), 1<<62)
	}
	mark := func(name, layer string, start int64) int64 {
		if o == nil {
			return 0
		}
		end := tr.now()
		o.add(root, name, layer, start, end)
		return end
	}
	start := time.Now()
	var t int64
	if tr != nil {
		t = tr.now()
	}
	type output struct {
		lines   []string
		profile []byte
		fits    []string
	}
	outs := make([]output, 0, len(set))
	for _, in := range set {
		res, err := aprof.RunProgram(in.src, aprof.VMOptions{})
		if err != nil {
			return 0, fmt.Errorf("%s: %w", in.name, err)
		}
		t = mark("vm.RunProgram", "vm", t)
		ps, err := aprof.ProfileTrace(res.Trace, w.cfg)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", in.name, err)
		}
		t = mark("aprof.ProfileTrace", "core", t)
		fits := fitAll(ps)
		t = mark("aprof.FitCost", "fit", t)
		var buf bytes.Buffer
		if err := aprof.WriteProfiles(&buf, ps); err != nil {
			return 0, err
		}
		if err := os.WriteFile(filepath.Join(w.outDir, in.name+".json"), buf.Bytes(), 0o644); err != nil {
			return 0, err
		}
		t = mark("aprof.WriteProfiles", "profio", t)
		outs = append(outs, output{res.Output, buf.Bytes(), fits})
	}
	lat := time.Since(start)
	if o != nil {
		o.spans[root].End = t
		tr.addOp(o)
	}
	var errs []error
	for i, in := range set {
		errs = append(errs, in.check(outs[i].lines, outs[i].profile, outs[i].fits))
	}
	return lat, errors.Join(errs...)
}

// check compares one program's outputs with its oracle.
func (in *vmInput) check(output []string, profile []byte, fits []string) error {
	if strings.Join(output, "\n") != strings.Join(in.output, "\n") {
		return fmt.Errorf("%s: program output %q, want %q", in.name, output, in.output)
	}
	if !bytes.Equal(profile, in.ref) {
		return fmt.Errorf("%s: profile differs from the offline reference", in.name)
	}
	if strings.Join(fits, "\n") != strings.Join(in.fits, "\n") {
		return fmt.Errorf("%s: fitted cost models differ from the reference", in.name)
	}
	return nil
}

// read loads the five profiles the op wrote back, as a consumer of
// aprof -json output does, and returns the median time to read one.
// Reading a single profile takes about a millisecond, short enough that
// most reads fall between the slices of CPU time the host steals.
func (w *offlineVM) read(c, n int, id int64, tr *tracer) (time.Duration, error) {
	set := w.variants[n%len(w.variants)]
	var times []float64
	for _, in := range set {
		start := time.Now()
		f, err := os.Open(filepath.Join(w.outDir, in.name+".json"))
		if err != nil {
			return 0, err
		}
		ps, err := aprof.ReadProfiles(f)
		f.Close()
		if err != nil {
			return 0, fmt.Errorf("%s: reading profile back: %w", in.name, err)
		}
		times = append(times, float64(time.Since(start)))
		if n := len(ps.Routines()); n != in.routines {
			return 0, fmt.Errorf("%s: profile read back has %d routines, want %d", in.name, n, in.routines)
		}
	}
	return time.Duration(median(times)), nil
}

func (w *offlineVM) counters() map[string]uint64 { return nil }

func (w *offlineVM) ledger(tr *tracer, ph *phase, m metrics) {
	perOp := func(name string) []float64 {
		var out []float64
		tr.mu.Lock()
		defer tr.mu.Unlock()
		for _, o := range tr.ops {
			var d int64
			for _, s := range o.spans {
				if s.Name == name {
					d += s.End - s.Start
				}
			}
			out = append(out, ms(time.Duration(d)))
		}
		return out
	}
	var events, state, fits, jsonBytes float64
	for _, set := range w.variants {
		for _, in := range set {
			events += float64(in.events)
			state += float64(in.state)
			fits += float64(len(in.fits))
			jsonBytes += float64(len(in.ref))
		}
	}
	nv := float64(len(w.variants))
	events, state, fits, jsonBytes = events/nv, state/nv, fits/nv, jsonBytes/nv

	vmMS, coreMS := median(perOp("vm.RunProgram")), median(perOp("aprof.ProfileTrace"))
	m.set("vm.run_ms", vmMS, "ms")
	m.set("vm.events", events, "count")
	m.set("vm.ns_per_event", vmMS*1e6/events, "ns")
	m.set("core.profile_ms", coreMS, "ms")
	m.set("core.ns_per_event", coreMS*1e6/events, "ns")
	m.set("core.state_kb", state/1024, "KB")
	m.set("fit.ms", median(perOp("aprof.FitCost")), "ms")
	m.set("fit.models", fits, "count")
	m.set("profio.json_ms", median(perOp("aprof.WriteProfiles")), "ms")
	m.set("profio.json_kb", jsonBytes/1024, "KB")
}
