package analysis

import (
	"fmt"
	"sort"
	"strings"

	"aprof/internal/vm"
)

// Effect analysis: a dataflow pass over the CFG that computes, per basic
// block, the static step cost and the symbolic memory accesses of each VM
// sub-block, and flags dead stores (V007).
//
// The frame the dead-store check relies on: the scheduler switches threads
// only at VM basic-block leaders, so no other thread runs between two
// accesses of one VM block. Sys ops transfer a cell range mid-block (and
// tick the profiler's counter), so they end "segments": nothing after a sys
// op is judged against anything before it. A store overwritten later in the
// same segment, with no possibly-aliasing read in between, is dead.
//
// Addresses are compared symbolically as linear forms over versioned local
// slots (const + Σ coeff·local@version). Identical forms denote identical
// runtime addresses; everything else is conservatively distinct.

// ---------------------------------------------------------------------------
// Symbolic address expressions.

// term is one coeff·local component of a linear address form. ver
// distinguishes values of the same slot across OpStoreLocal: equal (slot,
// ver) pairs denote the same runtime value within one block walk.
type term struct {
	slot  int32
	ver   int32
	coeff int64
}

// addrExpr is a canonical linear form: c + Σ terms, with terms sorted by
// (slot, ver) and no zero coefficients. known=false is ⊤ (any address).
// Arithmetic wraps exactly like the VM's int64 arithmetic, so equal forms
// imply equal runtime addresses even under overflow.
type addrExpr struct {
	known bool
	c     int64
	terms []term
}

func exprConst(c int64) addrExpr { return addrExpr{known: true, c: c} }

func exprLocal(slot, ver int32) addrExpr {
	return addrExpr{known: true, terms: []term{{slot: slot, ver: ver, coeff: 1}}}
}

func (e addrExpr) equal(o addrExpr) bool {
	if !e.known || !o.known || e.c != o.c || len(e.terms) != len(o.terms) {
		return false
	}
	for i := range e.terms {
		if e.terms[i] != o.terms[i] {
			return false
		}
	}
	return true
}

// disjoint reports that e and o provably denote different addresses: same
// variable part, different constant.
func (e addrExpr) disjoint(o addrExpr) bool {
	if !e.known || !o.known || e.c == o.c || len(e.terms) != len(o.terms) {
		return false
	}
	for i := range e.terms {
		if e.terms[i] != o.terms[i] {
			return false
		}
	}
	return true
}

// addExprs returns a + sign·b (sign is +1 or -1), or ⊤ if either is ⊤.
func addExprs(a, b addrExpr, sign int64) addrExpr {
	if !a.known || !b.known {
		return addrExpr{}
	}
	out := addrExpr{known: true, c: a.c + sign*b.c}
	i, j := 0, 0
	for i < len(a.terms) || j < len(b.terms) {
		switch {
		case j == len(b.terms) || (i < len(a.terms) && lessTerm(a.terms[i], b.terms[j])):
			out.terms = append(out.terms, a.terms[i])
			i++
		case i == len(a.terms) || lessTerm(b.terms[j], a.terms[i]):
			t := b.terms[j]
			t.coeff *= sign
			out.terms = append(out.terms, t)
			j++
		default:
			t := a.terms[i]
			t.coeff += sign * b.terms[j].coeff
			if t.coeff != 0 {
				out.terms = append(out.terms, t)
			}
			i++
			j++
		}
	}
	return out
}

func lessTerm(a, b term) bool {
	if a.slot != b.slot {
		return a.slot < b.slot
	}
	return a.ver < b.ver
}

// mulExprs returns a·b when one side is a constant, ⊤ otherwise.
func mulExprs(a, b addrExpr) addrExpr {
	if !a.known || !b.known {
		return addrExpr{}
	}
	if len(a.terms) > 0 && len(b.terms) > 0 {
		return addrExpr{}
	}
	k, e := a, b
	if len(k.terms) > 0 {
		k, e = b, a
	}
	out := addrExpr{known: true, c: e.c * k.c}
	if k.c == 0 {
		return out
	}
	for _, t := range e.terms {
		t.coeff *= k.c
		out.terms = append(out.terms, t)
	}
	return out
}

func negExpr(a addrExpr) addrExpr { return addExprs(exprConst(0), a, -1) }

// ---------------------------------------------------------------------------
// Analysis results.

// Access is one traced memory access of a sub-block, in program order.
type Access struct {
	PC    int
	Write bool
	// Sys marks a sysread/syswrite range transfer (Expr is the base
	// address, N the symbolic length).
	Sys bool
	N   string
	// Expr is the rendered symbolic address ("?" when unknown).
	Expr string
}

// SubBlock is one VM basic block (scheduling-atomic instruction run) inside
// a CFG block.
type SubBlock struct {
	Start, End int
	Accesses   []Access
}

// BlockEffects summarizes one CFG basic block: its static step cost and the
// memory-effect sets of its VM sub-blocks.
type BlockEffects struct {
	Index      int
	Start, End int
	// Steps is the static step cost: the number of instructions the block
	// executes on any pass through it.
	Steps int
	Subs  []SubBlock
}

// FuncEffects is the per-function analysis result.
type FuncEffects struct {
	Fn     *vm.Func
	Graph  *CFG
	Blocks []BlockEffects

	deadStores []deadStore
}

// deadStore is a V007 candidate: the store at pc is overwritten at
// overwritePC with no possibly-aliasing read in between.
type deadStore struct {
	pc          int
	overwritePC int
	expr        string
}

// ProgramEffects is the whole-program effect analysis.
type ProgramEffects struct {
	cp      *vm.CompiledProgram
	globals []globalRange
	Funcs   []*FuncEffects
}

type globalRange struct {
	name      string
	base, end int64
}

// AnalyzeProgram runs the effect analysis. It verifies the program first:
// the symbolic walk relies on the stack discipline the verifier proves.
func AnalyzeProgram(cp *vm.CompiledProgram) (*ProgramEffects, error) {
	if err := VerifyProgram(cp); err != nil {
		return nil, err
	}
	pe := &ProgramEffects{cp: cp}
	names := make([]string, 0, len(cp.GlobalBase))
	for name := range cp.GlobalBase {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return cp.GlobalBase[names[i]] < cp.GlobalBase[names[j]] })
	for i, name := range names {
		end := cp.GlobalEnd
		if i+1 < len(names) {
			end = cp.GlobalBase[names[i+1]]
		}
		pe.globals = append(pe.globals, globalRange{name: name, base: cp.GlobalBase[name], end: end})
	}
	for _, fn := range cp.Funcs {
		fe, err := pe.analyzeFunc(fn)
		if err != nil {
			return nil, err
		}
		pe.Funcs = append(pe.Funcs, fe)
	}
	return pe, nil
}

// DeadStores renders the V007 dead-store diagnostics of the program.
func (pe *ProgramEffects) DeadStores() []Diagnostic {
	var out []Diagnostic
	for _, fe := range pe.Funcs {
		for _, ds := range fe.deadStores {
			ins := fe.Fn.Code[ds.pc]
			over := fe.Fn.Code[ds.overwritePC]
			out = append(out, Diagnostic{
				Pos:  vm.Pos{Line: int(ins.Line), Col: int(ins.Col)},
				Code: CodeDeadStore,
				Msg:  fmt.Sprintf("dead store: value written to %s is overwritten at line %d before being read", ds.expr, over.Line),
			})
		}
	}
	sortDiagnostics(out)
	return out
}

// ---------------------------------------------------------------------------
// The per-function walk.

func (pe *ProgramEffects) analyzeFunc(fn *vm.Func) (*FuncEffects, error) {
	g, err := BuildCFG(fn)
	if err != nil {
		return nil, err
	}
	fe := &FuncEffects{Fn: fn, Graph: g}
	w := &walker{pe: pe, fn: fn, fe: fe}
	for _, b := range g.Blocks {
		w.walkBlock(b)
	}
	return fe, nil
}

// segAcc is one access of the current segment.
type segAcc struct {
	pc    int
	expr  addrExpr
	write bool
}

type walker struct {
	pe *ProgramEffects
	fn *vm.Func
	fe *FuncEffects

	ver   []int32
	stack []addrExpr
	seen  []segAcc

	sub         SubBlock
	pendingSubs []SubBlock
}

// walkBlock symbolically executes one CFG block. The evaluation stack and
// local versions flow across VM sub-block boundaries (they are
// thread-private state no other thread can touch); the segment resets at
// every VM leader (scheduling point) and after every sys op (mid-block
// range transfer).
func (w *walker) walkBlock(b *BasicBlock) {
	w.ver = make([]int32, w.fn.NumLocals)
	w.stack = w.stack[:0]
	w.startSub(b.Start)
	for pc := b.Start; pc < b.End; pc++ {
		if pc > b.Start && w.fn.BlockStart[pc] {
			w.closeSub(pc)
			w.startSub(pc)
		}
		w.step(pc)
	}
	w.closeSub(b.End)
	w.fe.Blocks = append(w.fe.Blocks, BlockEffects{
		Index: b.Index,
		Start: b.Start,
		End:   b.End,
		Steps: b.End - b.Start,
		Subs:  w.takeSubs(),
	})
}

// takeSubs returns the sub-blocks closeSub accumulated since walkBlock
// started and resets the scratch list.
func (w *walker) takeSubs() []SubBlock {
	subs := w.pendingSubs
	w.pendingSubs = nil
	return subs
}

func (w *walker) startSub(pc int) {
	w.sub = SubBlock{Start: pc}
	w.seen = w.seen[:0]
}

func (w *walker) closeSub(end int) {
	w.sub.End = end
	w.pendingSubs = append(w.pendingSubs, w.sub)
	w.seen = w.seen[:0]
}

func (w *walker) push(e addrExpr) { w.stack = append(w.stack, e) }

// pop returns ⊤ for values that entered the block on the stack: the
// verifier guarantees no true underflow on executed paths.
func (w *walker) pop() addrExpr {
	if len(w.stack) == 0 {
		return addrExpr{}
	}
	e := w.stack[len(w.stack)-1]
	w.stack = w.stack[:len(w.stack)-1]
	return e
}

func (w *walker) step(pc int) {
	ins := w.fn.Code[pc]
	cp := w.pe.cp
	switch ins.Op {
	case vm.OpConst:
		w.push(exprConst(cp.Constants[ins.A]))
	case vm.OpLoadLocal:
		w.push(exprLocal(ins.A, w.ver[ins.A]))
	case vm.OpStoreLocal:
		w.pop()
		w.ver[ins.A]++
	case vm.OpAdd:
		b := w.pop()
		a := w.pop()
		w.push(addExprs(a, b, 1))
	case vm.OpSub:
		b := w.pop()
		a := w.pop()
		w.push(addExprs(a, b, -1))
	case vm.OpMul:
		b := w.pop()
		a := w.pop()
		w.push(mulExprs(a, b))
	case vm.OpNeg:
		w.push(negExpr(w.pop()))
	case vm.OpLoadMem:
		addr := w.pop()
		w.access(pc, addr, false)
		w.push(addrExpr{})
	case vm.OpStoreMem:
		w.pop() // value
		addr := w.pop()
		w.access(pc, addr, true)
	case vm.OpSysRead, vm.OpSysWrite:
		n := w.pop()
		base := w.pop()
		w.sub.Accesses = append(w.sub.Accesses, Access{
			PC:    pc,
			Write: ins.Op == vm.OpSysRead, // sysread fills memory; syswrite reads it
			Sys:   true,
			N:     w.pe.renderScalar(n),
			Expr:  w.pe.render(base),
		})
		// The kernel transfer ticks the profiler counter and touches a cell
		// range: nothing downstream may be judged against anything upstream.
		w.seen = w.seen[:0]
		w.push(n)
	case vm.OpPrint, vm.OpAssert:
		info, _ := OpEffect(ins)
		for i := 0; i < info.Pops; i++ {
			w.pop()
		}
		w.push(exprConst(0))
	default:
		info, ok := OpEffect(ins)
		if !ok {
			return // verifier rejects these before analysis runs
		}
		for i := 0; i < info.Pops; i++ {
			w.pop()
		}
		for i := 0; i < info.Pushes; i++ {
			w.push(addrExpr{})
		}
	}
}

// access records a traced single-cell access and checks a write for dead
// stores (V007) against the current segment.
func (w *walker) access(pc int, e addrExpr, write bool) {
	if write && e.known {
		w.checkDeadStore(pc, e)
	}
	w.sub.Accesses = append(w.sub.Accesses, Access{
		PC:    pc,
		Write: write,
		Expr:  w.pe.render(e),
	})
	w.seen = append(w.seen, segAcc{pc: pc, expr: e, write: write})
}

// checkDeadStore finds the latest earlier write of the segment to the same
// address as the write at pc. That store is dead (V007) unless some
// possibly-aliasing read happened in between.
func (w *walker) checkDeadStore(pc int, e addrExpr) {
	for i := len(w.seen) - 1; i >= 0; i-- {
		if s := w.seen[i]; !s.write || !s.expr.equal(e) {
			continue
		}
		for _, r := range w.seen[i+1:] {
			if !r.write && !r.expr.disjoint(e) {
				return
			}
		}
		w.fe.deadStores = append(w.fe.deadStores, deadStore{
			pc:          w.seen[i].pc,
			overwritePC: pc,
			expr:        w.pe.render(e),
		})
		return
	}
}

// render formats a symbolic address, resolving constant parts to global
// names ("data+3", "buf+l2") and tagging re-assigned locals with their
// version ("l2@1"). "?" is ⊤.
func (pe *ProgramEffects) render(e addrExpr) string {
	return pe.renderExpr(e, true)
}

// renderScalar formats a non-address value (a sys transfer length):
// constants stay numeric instead of resolving to global names.
func (pe *ProgramEffects) renderScalar(e addrExpr) string {
	return pe.renderExpr(e, false)
}

func (pe *ProgramEffects) renderExpr(e addrExpr, asAddr bool) string {
	if !e.known {
		return "?"
	}
	var sb strings.Builder
	wrote := false
	if e.c != 0 || len(e.terms) == 0 {
		// Only a pure-constant form is an absolute address; with local
		// terms present the constant is a relative offset, not a global.
		if g := pe.globalAt(e.c); asAddr && g != nil && len(e.terms) == 0 {
			sb.WriteString(g.name)
			if off := e.c - g.base; off != 0 {
				fmt.Fprintf(&sb, "+%d", off)
			}
		} else {
			fmt.Fprintf(&sb, "%d", e.c)
		}
		wrote = true
	}
	for _, t := range e.terms {
		if t.coeff >= 0 && wrote {
			sb.WriteByte('+')
		}
		switch t.coeff {
		case 1:
		case -1:
			sb.WriteByte('-')
		default:
			fmt.Fprintf(&sb, "%d*", t.coeff)
		}
		fmt.Fprintf(&sb, "l%d", t.slot)
		if t.ver > 0 {
			fmt.Fprintf(&sb, "@%d", t.ver)
		}
		wrote = true
	}
	return sb.String()
}

func (pe *ProgramEffects) globalAt(addr int64) *globalRange {
	for i := range pe.globals {
		if addr >= pe.globals[i].base && addr < pe.globals[i].end {
			return &pe.globals[i]
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Report rendering.

// Report renders the per-function block/cost/effect report behind the
// `minivm effects` subcommand.
func (pe *ProgramEffects) Report() string {
	var sb strings.Builder
	for i, fe := range pe.Funcs {
		if i > 0 {
			sb.WriteByte('\n')
		}
		fe.write(&sb)
	}
	return sb.String()
}

func (fe *FuncEffects) write(sb *strings.Builder) {
	steps := 0
	for _, b := range fe.Blocks {
		steps += b.Steps
	}
	fmt.Fprintf(sb, "fn %s (blocks=%d steps=%d)\n", fe.Fn.Name, len(fe.Blocks), steps)
	for _, b := range fe.Blocks {
		fmt.Fprintf(sb, "  b%d pc[%d,%d) steps=%d\n", b.Index, b.Start, b.End, b.Steps)
		for _, s := range b.Subs {
			fmt.Fprintf(sb, "    [%d,%d)\n", s.Start, s.End)
			for _, a := range s.Accesses {
				if a.Sys {
					// Tagged by opcode: sysread (SR) fills the range — a
					// memory write — and syswrite (SW) reads it.
					tag := "SW"
					if a.Write {
						tag = "SR"
					}
					fmt.Fprintf(sb, "      %-2s %s n=%s\n", tag, a.Expr, a.N)
					continue
				}
				tag := "R"
				if a.Write {
					tag = "W"
				}
				fmt.Fprintf(sb, "      %-2s %s\n", tag, a.Expr)
			}
		}
	}
}
