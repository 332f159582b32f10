package vm

import (
	"fmt"
	"io"
	"strings"

	"aprof/internal/trace"
)

// Options configures an interpreter run.
type Options struct {
	// MaxSteps bounds the total number of executed instructions across all
	// threads (a runaway-loop backstop). 0 means the default of 200M.
	MaxSteps uint64
	// Quantum is the number of basic blocks a thread executes before the
	// scheduler switches to the next runnable thread. 0 means the default
	// of 50. Threads are serialized, as under Valgrind; the quantum only
	// controls interleaving granularity.
	Quantum int
	// HeapLimit bounds the traced heap, in cells. 0 means the default of
	// 1<<26.
	HeapLimit int64
	// Stdout, when non-nil, receives print output as it is produced (it is
	// always also collected in Result.Output).
	Stdout io.Writer
	// Optimize runs the bytecode optimizer (constant folding, jump
	// threading, dead-code elimination) before execution. It changes the
	// basic-block cost metric — like compiling the profiled application
	// with optimizations — but never the traced memory events.
	Optimize bool
}

func (o Options) withDefaults() Options {
	if o.MaxSteps == 0 {
		o.MaxSteps = 200_000_000
	}
	if o.Quantum == 0 {
		o.Quantum = 50
	}
	if o.HeapLimit == 0 {
		o.HeapLimit = 1 << 26
	}
	return o
}

// Result is the outcome of an interpreter run.
type Result struct {
	// Trace is the merged instrumentation trace of the execution.
	Trace *trace.Trace
	// Output collects the lines printed by the program.
	Output []string
	// Steps is the total number of executed instructions.
	Steps uint64
	// BasicBlocks is the total number of executed basic blocks across all
	// threads (the cost measure).
	BasicBlocks uint64
	// Threads is the number of threads the program ran (including main).
	Threads int
}

// RuntimeError is an execution error with source context.
type RuntimeError struct {
	Func string
	Line int
	Msg  string
}

// Error implements the error interface.
func (e *RuntimeError) Error() string {
	return fmt.Sprintf("minilang: runtime error in %s (line %d): %s", e.Func, e.Line, e.Msg)
}

// RunSource compiles and runs MiniLang source.
func RunSource(src string, opts Options) (*Result, error) {
	cp, err := Compile(src)
	if err != nil {
		return nil, err
	}
	if opts.Optimize {
		if _, err := cp.Optimize(); err != nil {
			return nil, err
		}
	}
	return RunProgram(cp, opts)
}

// vmThread is one interpreted thread.
type vmThread struct {
	id      trace.ThreadID
	tb      *trace.ThreadBuilder
	frames  []*vmFrame
	bb      uint64
	started bool
	done    bool
	// blockedOn is the semaphore id the thread is waiting on, or -1.
	blockedOn int
}

// vmFrame is one activation record.
type vmFrame struct {
	fn     *Func
	pc     int
	locals []int64
	stack  []int64
}

// semaphore is a counting semaphore with a FIFO wait queue.
type semaphore struct {
	value   int64
	waiters []*vmThread
}

// interp holds the whole machine state.
type interp struct {
	cp      *CompiledProgram
	opts    Options
	heap    []int64
	heapEnd int64
	sems    []*semaphore
	runq    []*vmThread
	threads []*vmThread
	builder *trace.Builder
	output  []string
	steps   uint64
	extSeq  int64
	randSt  uint64
	nextID  trace.ThreadID
}

const maxCallDepth = 4096

// RunProgram executes a compiled program under instrumentation and returns
// the merged trace plus program output.
func RunProgram(cp *CompiledProgram, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	in := &interp{
		cp:      cp,
		opts:    opts,
		builder: trace.NewBuilder(),
		heapEnd: cp.GlobalEnd,
		nextID:  1,
	}
	in.builder.AutoCost(false)
	in.heap = make([]int64, cp.GlobalEnd+1024)
	for _, init := range cp.GlobalInit {
		in.heap[init[0]] = init[1]
	}

	main := in.spawnThread(cp.FuncByName["main"], nil)
	_ = main
	if err := in.schedule(); err != nil {
		return nil, err
	}
	var totalBB uint64
	for _, t := range in.threads {
		totalBB += t.bb
	}
	return &Result{
		Trace:       in.builder.Trace(),
		Output:      in.output,
		Steps:       in.steps,
		BasicBlocks: totalBB,
		Threads:     len(in.threads),
	}, nil
}

// spawnThread creates a thread whose root activation runs funcs[fnIdx] with
// the given arguments.
func (in *interp) spawnThread(fnIdx int, args []int64) *vmThread {
	fn := in.cp.Funcs[fnIdx]
	fr := &vmFrame{fn: fn, locals: make([]int64, fn.NumLocals)}
	copy(fr.locals, args)
	t := &vmThread{
		id:        in.nextID,
		frames:    []*vmFrame{fr},
		blockedOn: -1,
	}
	in.nextID++
	t.tb = in.builder.Thread(t.id)
	in.threads = append(in.threads, t)
	in.runq = append(in.runq, t)
	return t
}

// schedule runs the round-robin scheduler until all threads complete.
func (in *interp) schedule() error {
	for len(in.runq) > 0 {
		t := in.runq[0]
		in.runq = in.runq[1:]
		if err := in.runSlice(t); err != nil {
			return err
		}
		if !t.done && t.blockedOn < 0 {
			in.runq = append(in.runq, t)
		}
	}
	for _, t := range in.threads {
		if !t.done {
			return &RuntimeError{
				Func: t.frames[len(t.frames)-1].fn.Name,
				Line: 0,
				Msg:  fmt.Sprintf("deadlock: thread %d blocked on semaphore %d with no runnable threads", t.id, t.blockedOn),
			}
		}
	}
	return nil
}

// runSlice executes t until it crosses Quantum basic-block boundaries,
// blocks, or finishes. It is the interpreter's one dispatch loop. The top
// frame's code, block leaders, pc, operand stack and locals live in local
// variables: they are reloaded when a call or return changes the top frame,
// and pc and stack are written back to the frame when the slice ends.
func (in *interp) runSlice(t *vmThread) error {
	tb := t.tb
	if !t.started {
		t.started = true
		// The root activation's call event: the thread begins executing its
		// root function.
		tb.SetCost(t.bb)
		tb.Call(t.frames[0].fn.Name)
	}
	consts := in.cp.Constants
	heap, heapEnd := in.heap, in.heapEnd
	steps, maxSteps := in.steps, in.opts.MaxSteps
	blocks, quantum := 0, in.opts.Quantum

	fr := t.frames[len(t.frames)-1]
	code, lead, locals, st, pc := fr.fn.Code, fr.fn.BlockStart, fr.locals, fr.stack, fr.pc
	var err error
run:
	for {
		if lead[pc] {
			if blocks >= quantum {
				break run // switch threads at the block boundary
			}
			blocks++
			t.bb++
		}
		if steps >= maxSteps {
			err = &RuntimeError{Func: fr.fn.Name, Line: int(code[pc].Line), Msg: "step limit exceeded (infinite loop?)"}
			break run
		}
		steps++
		ins := &code[pc]
		pc++
		top := len(st) - 1
		switch ins.Op {
		case OpConst:
			st = append(st, consts[ins.A])
		case OpLoadLocal:
			st = append(st, locals[ins.A])
		case OpStoreLocal:
			locals[ins.A] = st[top]
			st = st[:top]
		case OpLoadMem:
			addr := st[top]
			if addr < heapBase || addr > heapEnd-1 {
				err = in.memErr(fr, ins, addr, 1)
				break run
			}
			tb.SetCost(t.bb)
			tb.Read1(trace.Addr(addr))
			st[top] = heap[addr]
		case OpStoreMem:
			addr := st[top-1]
			if addr < heapBase || addr > heapEnd-1 {
				err = in.memErr(fr, ins, addr, 1)
				break run
			}
			tb.SetCost(t.bb)
			tb.Write1(trace.Addr(addr))
			heap[addr] = st[top]
			st = st[:top-1]
		case OpAdd:
			st[top-1] += st[top]
			st = st[:top]
		case OpSub:
			st[top-1] -= st[top]
			st = st[:top]
		case OpMul:
			st[top-1] *= st[top]
			st = st[:top]
		case OpDiv:
			if st[top] == 0 {
				err = in.rtErr(fr, ins, "division by zero")
				break run
			}
			st[top-1] /= st[top]
			st = st[:top]
		case OpMod:
			if st[top] == 0 {
				err = in.rtErr(fr, ins, "division by zero")
				break run
			}
			st[top-1] %= st[top]
			st = st[:top]
		case OpNeg:
			st[top] = -st[top]
		case OpNot:
			st[top] = boolVal(st[top] == 0)
		case OpEq:
			st[top-1] = boolVal(st[top-1] == st[top])
			st = st[:top]
		case OpNe:
			st[top-1] = boolVal(st[top-1] != st[top])
			st = st[:top]
		case OpLt:
			st[top-1] = boolVal(st[top-1] < st[top])
			st = st[:top]
		case OpLe:
			st[top-1] = boolVal(st[top-1] <= st[top])
			st = st[:top]
		case OpGt:
			st[top-1] = boolVal(st[top-1] > st[top])
			st = st[:top]
		case OpGe:
			st[top-1] = boolVal(st[top-1] >= st[top])
			st = st[:top]
		case OpJump:
			pc = int(ins.A)
		case OpJumpIfZero:
			if st[top] == 0 {
				pc = int(ins.A)
			}
			st = st[:top]
		case OpJumpIfNonZero:
			if st[top] != 0 {
				pc = int(ins.A)
			}
			st = st[:top]
		case OpPop:
			st = st[:top]
		case OpCall:
			if len(t.frames) >= maxCallDepth {
				err = in.rtErr(fr, ins, "call stack overflow (depth %d)", maxCallDepth)
				break run
			}
			callee := in.cp.Funcs[ins.A]
			nf := &vmFrame{fn: callee, locals: make([]int64, callee.NumLocals)}
			args := len(st) - int(ins.B)
			copy(nf.locals, st[args:])
			st = st[:args]
			tb.SetCost(t.bb)
			tb.Call(callee.Name)
			fr.pc, fr.stack = pc, st
			t.frames = append(t.frames, nf)
			fr = nf
			code, lead, locals, st, pc = fr.fn.Code, fr.fn.BlockStart, fr.locals, fr.stack, fr.pc
		case OpReturn:
			ret := st[top]
			tb.SetCost(t.bb)
			tb.Ret()
			t.frames = t.frames[:len(t.frames)-1]
			if len(t.frames) == 0 {
				t.done = true
				break run
			}
			fr = t.frames[len(t.frames)-1]
			code, lead, locals, st, pc = fr.fn.Code, fr.fn.BlockStart, fr.locals, fr.stack, fr.pc
			st = append(st, ret)
		case OpSpawn:
			args := len(st) - int(ins.B)
			in.spawnThread(int(ins.A), st[args:])
			st = st[:args]
		case OpAlloc:
			if st[top], err = in.alloc(fr, ins, st[top]); err != nil {
				break run
			}
			heap, heapEnd = in.heap, in.heapEnd
		case OpSemNew:
			if st[top], err = in.semNew(fr, ins, st[top]); err != nil {
				break run
			}
		case OpSemWait:
			blocked, werr := in.semWait(t, fr, ins, st[top])
			if werr != nil || blocked {
				// A blocked wait pops the id now; the granting signal
				// completes the stack effect.
				err = werr
				st = st[:top]
				break run
			}
			st[top] = 0
		case OpSemSignal:
			if err = in.semSignal(t, fr, ins, st[top]); err != nil {
				break run
			}
			st[top] = 0
		case OpSysRead:
			if err = in.sysRead(t, fr, ins, st[top-1], st[top]); err != nil {
				break run
			}
			st[top-1] = st[top]
			st = st[:top]
		case OpSysWrite:
			if err = in.sysWrite(t, fr, ins, st[top-1], st[top]); err != nil {
				break run
			}
			st[top-1] = st[top]
			st = st[:top]
		case OpPrint:
			args := len(st) - int(ins.A)
			in.print(ins, st[args:])
			st = append(st[:args], 0)
		case OpAssert:
			if st[top] == 0 {
				err = in.rtErr(fr, ins, "assertion failed")
				break run
			}
			st[top] = 0
		case OpRand:
			if st[top], err = in.rand(fr, ins, st[top]); err != nil {
				break run
			}
		default:
			err = in.rtErr(fr, ins, "unhandled opcode %s", ins.Op)
			break run
		}
	}
	fr.pc, fr.stack = pc, st
	in.steps = steps
	return err
}

func (in *interp) rtErr(fr *vmFrame, ins *Instr, format string, args ...any) error {
	return &RuntimeError{Func: fr.fn.Name, Line: int(ins.Line), Msg: fmt.Sprintf(format, args...)}
}

// memErr reports an invalid n-cell access at addr.
func (in *interp) memErr(fr *vmFrame, ins *Instr, addr, n int64) error {
	return in.rtErr(fr, ins, "invalid memory access at address %d (%d cells; heap is [%d, %d))", addr, n, heapBase, in.heapEnd)
}

// checkAddr validates a heap address for an n-cell access. The end bound
// is compared as addr > heapEnd-n, which cannot overflow for n >= 0.
func (in *interp) checkAddr(fr *vmFrame, ins *Instr, addr, n int64) error {
	if addr < heapBase || n < 0 || addr > in.heapEnd-n {
		return in.memErr(fr, ins, addr, n)
	}
	return nil
}

// alloc executes OpAlloc: it returns the base of n fresh heap cells.
func (in *interp) alloc(fr *vmFrame, ins *Instr, n int64) (int64, error) {
	if n <= 0 {
		return 0, in.rtErr(fr, ins, "alloc of non-positive size %d", n)
	}
	if in.heapEnd+n > in.opts.HeapLimit {
		return 0, in.rtErr(fr, ins, "heap limit of %d cells exceeded", in.opts.HeapLimit)
	}
	base := in.heapEnd
	in.heapEnd += n
	for int64(len(in.heap)) < in.heapEnd {
		in.heap = append(in.heap, make([]int64, len(in.heap))...)
	}
	return base, nil
}

// semNew executes OpSemNew: it returns the id of a new semaphore.
func (in *interp) semNew(fr *vmFrame, ins *Instr, init int64) (int64, error) {
	if init < 0 {
		return 0, in.rtErr(fr, ins, "semaphore initialized to negative value %d", init)
	}
	in.sems = append(in.sems, &semaphore{value: init})
	return int64(len(in.sems) - 1), nil
}

// semWait executes OpSemWait on semaphore id. It reports whether t
// blocked; a blocked thread's wait is granted later by a signal, which also
// emits the acquire event and completes the instruction's stack effect.
func (in *interp) semWait(t *vmThread, fr *vmFrame, ins *Instr, id int64) (bool, error) {
	if id < 0 || id >= int64(len(in.sems)) {
		return false, in.rtErr(fr, ins, "wait on invalid semaphore %d", id)
	}
	s := in.sems[id]
	if s.value > 0 {
		s.value--
		t.tb.SetCost(t.bb)
		t.tb.Acquire(trace.Addr(id))
		return false, nil
	}
	t.blockedOn = int(id)
	s.waiters = append(s.waiters, t)
	return true, nil
}

// semSignal executes OpSemSignal on semaphore id, granting the oldest
// pending wait if there is one.
func (in *interp) semSignal(t *vmThread, fr *vmFrame, ins *Instr, id int64) error {
	if id < 0 || id >= int64(len(in.sems)) {
		return in.rtErr(fr, ins, "signal on invalid semaphore %d", id)
	}
	s := in.sems[id]
	t.tb.SetCost(t.bb)
	t.tb.Release(trace.Addr(id))
	if len(s.waiters) == 0 {
		s.value++
		return nil
	}
	w := s.waiters[0]
	s.waiters = s.waiters[1:]
	w.blockedOn = -1
	// Complete the waiter's pending wait: acquire event and stack effect,
	// then make it runnable again.
	w.tb.SetCost(w.bb)
	w.tb.Acquire(trace.Addr(id))
	wf := w.frames[len(w.frames)-1]
	wf.stack = append(wf.stack, 0)
	in.runq = append(in.runq, w)
	return nil
}

// sysRead executes OpSysRead: the kernel fills heap[base, base+n) with
// fresh external data.
func (in *interp) sysRead(t *vmThread, fr *vmFrame, ins *Instr, base, n int64) error {
	if err := in.checkAddr(fr, ins, base, n); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	t.tb.SetCost(t.bb)
	t.tb.SysRead(trace.Addr(base), uint32(n))
	for i := int64(0); i < n; i++ {
		in.extSeq++
		in.heap[base+i] = in.extSeq
	}
	return nil
}

// sysWrite executes OpSysWrite: the kernel reads heap[base, base+n).
func (in *interp) sysWrite(t *vmThread, fr *vmFrame, ins *Instr, base, n int64) error {
	if err := in.checkAddr(fr, ins, base, n); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	t.tb.SetCost(t.bb)
	t.tb.SysWrite(trace.Addr(base), uint32(n))
	return nil
}

// print executes OpPrint over the popped argument values.
func (in *interp) print(ins *Instr, vals []int64) {
	var sb strings.Builder
	if ins.B >= 0 {
		sb.WriteString(in.cp.Strings[ins.B])
	}
	for i, v := range vals {
		if i > 0 || ins.B >= 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d", v)
	}
	line := sb.String()
	in.output = append(in.output, line)
	if in.opts.Stdout != nil {
		fmt.Fprintln(in.opts.Stdout, line)
	}
}

// rand executes OpRand: a value in [0, n) from the VM's generator.
func (in *interp) rand(fr *vmFrame, ins *Instr, n int64) (int64, error) {
	if n <= 0 {
		return 0, in.rtErr(fr, ins, "rand of non-positive bound %d", n)
	}
	// SplitMix64: deterministic across runs (the VM is seeded, not the
	// wall clock), so profiled programs stay reproducible.
	in.randSt += 0x9e3779b97f4a7c15
	z := in.randSt
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z % uint64(n)), nil
}

func boolVal(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
