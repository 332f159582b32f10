package vm

// The interpreter does not dispatch on Func.Code directly. RunProgram
// decodes each function once per run into an execution array whose slots
// line up with Code: slot pc holds the instruction at pc with its operands
// resolved (an OpConst carries its value, not its pool index), whether pc is
// a block leader, and n, the number of bytecode instructions the slot
// executes. Where a measured hot sequence starts at pc, the slot is a fused
// form that runs the whole sequence in one dispatch.
//
// A fused form never spans a block leader (only its first instruction may be
// one) and holds only instructions that cannot fail or emit a trace event.
// Blocks, quantum switches, events and costs are therefore those of the
// unfused run, and so is every runtime error and the line it names. The
// step limit is kept exact by runSlice: a slot runs fused only while
// steps+n <= MaxSteps, and otherwise the loop runs decode(Code[pc]). Every
// slot is built from the code that starts at its own pc, so execution may
// continue at any pc inside a fused sequence.

// xop is an execution-array opcode: an Op, which executes as itself, or one
// of the fused forms below.
type xop uint8

// Fused forms. The comment gives the sequence each one executes and where
// its operands go: the locals it loads or stores fill slot.a then slot.b in
// order of appearance, a constant goes to slot.k and a jump target to slot.t.
// They are numbered after the last Op.
const (
	// loadlocal a; const k; add; storelocal b; jump t  (x = x + k closing a loop)
	xIncLocalJump xop = iota + xop(len(opNames))
	// loadlocal a; loadlocal b; lt; jz t  (a loop's test)
	xLtLocalJz
	// loadlocal a; loadlocal b; add
	xPushAddLocal
	// loadlocal a; const k; add, or const k; loadlocal a; add
	xPushAddConst
	// loadlocal a; const k; mul
	xPushMulConst
	// const k; add
	xAddConst
	// add; storelocal a
	xAddStore
	// mul; add
	xMulAdd
	// const k; mod, with k != 0
	xModConst
)

// fusedForms lists the sequences each fused form executes, longest first:
// the builder takes the first that matches at a pc. Each covers at least 1%
// of the instructions the five workloads.VMPrograms applications execute;
// DESIGN.md ("VM hot path") has the counts.
var fusedForms = []struct {
	x   xop
	ops []Op
}{
	{xIncLocalJump, []Op{OpLoadLocal, OpConst, OpAdd, OpStoreLocal, OpJump}},
	{xLtLocalJz, []Op{OpLoadLocal, OpLoadLocal, OpLt, OpJumpIfZero}},
	{xPushAddLocal, []Op{OpLoadLocal, OpLoadLocal, OpAdd}},
	{xPushAddConst, []Op{OpLoadLocal, OpConst, OpAdd}},
	{xPushAddConst, []Op{OpConst, OpLoadLocal, OpAdd}},
	{xPushMulConst, []Op{OpLoadLocal, OpConst, OpMul}},
	{xAddConst, []Op{OpConst, OpAdd}},
	{xAddStore, []Op{OpAdd, OpStoreLocal}},
	{xMulAdd, []Op{OpMul, OpAdd}},
	{xModConst, []Op{OpConst, OpMod}},
}

// slot is one entry of a function's execution array.
type slot struct {
	op   xop
	lead bool  // the slot's pc is a basic-block leader
	n    uint8 // bytecode instructions the slot executes
	// a and b are an Op's A and B operands; t and k are unused by Ops except
	// OpConst, whose k is the constant's value. Fused forms use them as
	// fusedForms describes.
	a, b, t int32
	k       int64
}

// decode returns the unfused slot for one instruction.
func decode(ins Instr, consts []int64) slot {
	s := slot{op: xop(ins.Op), n: 1, a: ins.A, b: ins.B}
	if ins.Op == OpConst {
		s.k = consts[ins.A]
	}
	return s
}

// buildExec returns fn's execution array. With fuse false every slot is
// decode(Code[pc]), the oracle the fused array is tested against.
func buildExec(fn *Func, consts []int64, fuse bool) []slot {
	xs := make([]slot, len(fn.Code))
	for pc, ins := range fn.Code {
		xs[pc] = decode(ins, consts)
		if fuse {
			if s, ok := fuseAt(fn, consts, pc); ok {
				xs[pc] = s
			}
		}
		xs[pc].lead = fn.BlockStart[pc]
	}
	return xs
}

// fuseAt returns the first fused form whose sequence starts at pc and lies
// inside pc's basic block.
func fuseAt(fn *Func, consts []int64, pc int) (slot, bool) {
next:
	for _, f := range fusedForms {
		if pc+len(f.ops) > len(fn.Code) {
			continue
		}
		s := slot{op: f.x, n: uint8(len(f.ops))}
		locals := 0
		for i, op := range f.ops {
			ins := fn.Code[pc+i]
			if ins.Op != op || (i > 0 && fn.BlockStart[pc+i]) {
				continue next
			}
			switch op {
			case OpLoadLocal, OpStoreLocal:
				if locals == 0 {
					s.a = ins.A
				} else {
					s.b = ins.A
				}
				locals++
			case OpConst:
				s.k = consts[ins.A]
			case OpJump, OpJumpIfZero:
				s.t = ins.A
			}
		}
		if f.x == xModConst && s.k == 0 {
			continue // the unfused mod reports the division by zero
		}
		return s, true
	}
	return slot{}, false
}
