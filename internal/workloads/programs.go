package workloads

import (
	"fmt"

	"aprof/internal/trace"
	"aprof/internal/vm"
)

// VMProgram is a complete multithreaded MiniLang application together with
// the dynamic-workload characterization it must exhibit. Unlike the
// programmatic suite (suite.go), these workloads are *real programs* run by
// the instrumented VM: scheduling, semaphore blocking and kernel I/O all
// happen inside the interpreter, so the traces exercise the full
// Valgrind-substitute path end to end.
type VMProgram struct {
	Name   string
	Source string
	// WantOutput is the program's full expected output.
	WantOutput []string
	// MinThreadInputPct / MinExternalInputPct are lower bounds on the
	// run-level induced first-read split.
	MinThreadInputPct   float64
	MinExternalInputPct float64
	// HotRoutine names a routine whose drms must exceed its rms by at least
	// DynamicFactor (the dynamic workload the rms misses).
	HotRoutine    string
	DynamicFactor float64
}

// VMPrograms returns the application collection.
func VMPrograms() []VMProgram {
	return []VMProgram{
		{
			// A two-stage pipeline: a producer feeds raw items through a
			// one-slot buffer to a filter, which feeds accepted items to a
			// consumer. All input of the downstream stages is thread input.
			Name: "pipeline",
			Source: `
global raw = 0;
global cooked = 0;

fn produce(n, rawFree, rawFull) {
	for (var i = 1; i <= n; i = i + 1) {
		wait(rawFree);
		raw = i * 7 % 100;
		signal(rawFull);
	}
}

fn filter(n, rawFree, rawFull, cookedFree, cookedFull) {
	var kept = 0;
	for (var i = 0; i < n; i = i + 1) {
		wait(rawFull);
		var v = raw;
		signal(rawFree);
		wait(cookedFree);
		cooked = v * 2;
		signal(cookedFull);
		kept = kept + 1;
	}
	assert(kept == n);
}

fn consume(n, cookedFree, cookedFull) {
	var sum = 0;
	for (var i = 0; i < n; i = i + 1) {
		wait(cookedFull);
		sum = sum + cooked;
		signal(cookedFree);
	}
	print("consumed:", sum);
}

fn main() {
	var n = 300;
	var rawFree = sem(1);
	var rawFull = sem(0);
	var cookedFree = sem(1);
	var cookedFull = sem(0);
	spawn produce(n, rawFree, rawFull);
	spawn filter(n, rawFree, rawFull, cookedFree, cookedFull);
	consume(n, cookedFree, cookedFull);
}`,
			WantOutput:        []string{"consumed: 29700"},
			MinThreadInputPct: 95,
			HotRoutine:        "consume",
			DynamicFactor:     50,
		},
		{
			// A request server: the network (sysread) delivers requests into
			// a reused buffer; worker threads process them and publish
			// responses through shared cells.
			Name: "server",
			Source: `
global reqbuf[8];
global resp = 0;

fn handle(req) {
	var acc = 0;
	for (var i = 0; i < req % 16 + 1; i = i + 1) {
		acc = acc + i * req;
	}
	return acc;
}

fn worker(n, reqReady, respReady) {
	for (var i = 0; i < n; i = i + 1) {
		wait(reqReady);
		resp = handle(reqbuf[0] % 97);
		signal(respReady);
	}
}

fn accept_loop(n, reqReady, respReady) {
	var total = 0;
	for (var i = 0; i < n; i = i + 1) {
		sysread(reqbuf, 8);     // a fresh request from the network
		signal(reqReady);
		wait(respReady);
		total = total + resp;
		syswrite(reqbuf, 1);    // echo part of the response out
	}
	print("served/checksum:", n, total % 1000000);
}

fn main() {
	var n = 200;
	var reqReady = sem(0);
	var respReady = sem(0);
	spawn worker(n, reqReady, respReady);
	accept_loop(n, reqReady, respReady);
}`,
			WantOutput:          []string{"served/checksum: 200 423666"},
			MinExternalInputPct: 55,
			HotRoutine:          "accept_loop",
			DynamicFactor:       50,
		},
		{
			// Iterative fork-join refinement: each round, workers rewrite
			// their slices of a shared array and a reducer folds the whole
			// array. The reducer reads the same 512 cells every round, so
			// its rms stays one array while its drms counts every
			// thread-produced refresh — the dynamic workload the rms
			// misses.
			Name: "mapreduce",
			Source: `
global data[512];

fn mapper(base, n, round, startSem, doneSem) {
	wait(startSem);
	for (var i = 0; i < n; i = i + 1) {
		data[base + i] = (base + i + round * 13) % 251;
	}
	signal(doneSem);
}

fn map_round(round, parts, chunk, startSems, doneSem) {
	for (var p = 0; p < parts; p = p + 1) {
		spawn mapper(p * chunk, chunk, round, startSems, doneSem);
	}
	for (var p = 0; p < parts; p = p + 1) {
		signal(startSems);
	}
	for (var p = 0; p < parts; p = p + 1) {
		wait(doneSem);
	}
	return 0;
}

fn reduce(n) {
	var sum = 0;
	for (var i = 0; i < n; i = i + 1) {
		sum = sum + data[i];
	}
	return sum;
}

fn main() {
	var parts = 4;
	var chunk = 128;
	var rounds = 8;
	var startSems = sem(0);
	var doneSem = sem(0);
	var total = 0;
	for (var r = 0; r < rounds; r = r + 1) {
		map_round(r, parts, chunk, startSems, doneSem);
		total = total + reduce(parts * chunk);
	}
	print("reduced:", total);
}`,
			WantOutput:        []string{"reduced: 506000"},
			MinThreadInputPct: 95,
			HotRoutine:        "main",
			DynamicFactor:     6,
		},
		{
			// A single-threaded unrolled stencil pass: each smooth() body is
			// one straight-line basic block whose neighboring reads overlap
			// and whose result cells are re-read for the checksum, so many
			// of its accesses repeat an address within one block. No
			// threads, no I/O: drms equals rms here (DynamicFactor 1).
			Name: "stencil",
			Source: `
global grid[72];
global out[72];

fn smooth(base) {
	out[base] = grid[base] + grid[base + 1];
	out[base + 1] = grid[base + 1] + grid[base + 2];
	out[base + 2] = grid[base + 2] + grid[base + 3];
	out[base + 3] = grid[base + 3] + grid[base + 4];
	out[base + 4] = grid[base + 4] + grid[base + 5];
	out[base + 5] = grid[base + 5] + grid[base + 6];
	out[base + 6] = grid[base + 6] + grid[base + 7];
	out[base + 7] = grid[base + 7] + grid[base + 8];
	return out[base] + out[base + 1] + out[base + 2] + out[base + 3]
		+ out[base + 4] + out[base + 5] + out[base + 6] + out[base + 7];
}

fn main() {
	for (var i = 0; i < 72; i = i + 1) {
		grid[i] = i * 5 % 11;
	}
	var total = 0;
	for (var round = 0; round < 6; round = round + 1) {
		for (var p = 0; p < 8; p = p + 1) {
			total = total + smooth(p * 8);
		}
	}
	print("smoothed:", total);
}`,
			WantOutput:    []string{"smoothed: 3882"},
			HotRoutine:    "smooth",
			DynamicFactor: 1,
		},
		{
			// An unrolled self-dot-product: every cell is read twice per
			// block (x·x), so half the reads in each dot8 body are provably
			// redundant. Single-threaded and I/O-free like stencil.
			Name: "vecnorm",
			Source: `
global vec[64];

fn dot8(i) {
	return vec[i] * vec[i]
		+ vec[i + 1] * vec[i + 1]
		+ vec[i + 2] * vec[i + 2]
		+ vec[i + 3] * vec[i + 3]
		+ vec[i + 4] * vec[i + 4]
		+ vec[i + 5] * vec[i + 5]
		+ vec[i + 6] * vec[i + 6]
		+ vec[i + 7] * vec[i + 7];
}

fn main() {
	for (var i = 0; i < 64; i = i + 1) {
		vec[i] = i % 9 - 4;
	}
	var norm = 0;
	for (var round = 0; round < 8; round = round + 1) {
		for (var b = 0; b < 8; b = b + 1) {
			norm = norm + dot8(b * 8);
		}
	}
	print("norm:", norm);
}`,
			WantOutput:    []string{"norm: 3488"},
			HotRoutine:    "dot8",
			DynamicFactor: 1,
		},
	}
}

// BuildTrace runs the program under the instrumented VM and verifies its
// output.
func (p VMProgram) BuildTrace() (*trace.Trace, error) {
	res, err := vm.RunSource(p.Source, vm.Options{})
	if err != nil {
		return nil, fmt.Errorf("workloads: %s: %w", p.Name, err)
	}
	if len(res.Output) != len(p.WantOutput) {
		return nil, fmt.Errorf("workloads: %s: output %v, want %v", p.Name, res.Output, p.WantOutput)
	}
	for i := range p.WantOutput {
		if res.Output[i] != p.WantOutput[i] {
			return nil, fmt.Errorf("workloads: %s: output %v, want %v", p.Name, res.Output, p.WantOutput)
		}
	}
	return res.Trace, nil
}
