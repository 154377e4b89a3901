package kir

import "fmt"

// This file lowers the structured AST to a flat register bytecode. The
// bytecode has unlimited virtual registers, separate integer and float
// register files, and explicit jumps; the interpreter in interp.go
// executes it once per work item. As it emits the bytecode, the lowerer
// also records what no precision binding changes: the structured control
// tree the batch engine walks (see bnode) and the buffers stores write.

type opcode uint8

const (
	opNop opcode = iota

	// Integer register ops.
	opIConst  // i[dst] = imm
	opIMov    // i[dst] = i[a]
	opIAdd    // i[dst] = i[a] + i[b]
	opIAddImm // i[dst] = i[a] + imm
	opISub
	opIMul
	opIDiv
	opIMod
	opIMin
	opIMax
	opINeg
	opIAbs
	opIParam // i[dst] = intArgs[imm]
	opGID    // i[dst] = gid[imm]

	// Float register ops. Results are rounded to the promoted precision of
	// the operands.
	opFConst // f[dst] = fimm, untyped precision
	opFMov
	opFAdd
	opFSub
	opFMul
	opFDiv
	opFMin
	opFMax
	opFNeg
	opFAbs
	opFSqrt
	opFExp
	opFLog
	opFFMA // f[dst] = f[a]*f[b] + f[c], single rounding
	opItoF // f[dst] = float(i[a]), untyped precision

	// Memory ops.
	opLoad  // f[dst] = buf[imm][ i[a] ]
	opStore // buf[imm][ i[a] ] = f[b]

	// Comparisons and logic produce 0/1 in an int register.
	opICmp // i[dst] = cmp(i[a], i[b])
	opFCmp // i[dst] = cmp(f[a], f[b])
	opBAnd // i[dst] = i[a] && i[b]
	opBOr  // i[dst] = i[a] || i[b]

	// Control flow.
	opJump    // pc = imm
	opJumpIfZ // if i[a] == 0 { pc = imm }

	// Conditional selects.
	opSelI // i[dst] = i[a] != 0 ? i[b] : i[c]
	opSelF // f[dst] = i[a] != 0 ? f[b] : f[c]
)

type inst struct {
	op           opcode
	dst, a, b, c int32
	imm          int64
	fimm         float64
	cmp          CmpOp
}

// launchConst is a loop bound whose value is fixed for a whole launch:
// the scalar argument at index param, or the int literal v when param
// is negative.
type launchConst struct {
	v     int64
	param int
}

// value returns c for one launch's scalar arguments.
func (c launchConst) value(args []int64) int64 {
	if c.param >= 0 {
		return args[c.param]
	}
	return c.v
}

// tripBounds are the start and end of a loop whose bounds are launch
// constants. Within one launch such a loop either skips its body at
// every entry or at none.
type tripBounds struct{ start, end launchConst }

// Program is a kernel lowered to executable bytecode.
type Program struct {
	Kernel *Kernel
	code   []inst
	nIReg  int
	nFReg  int
	// nodes is the structured control tree the batch engine walks, built
	// by the lowerer as it emits each construct's jumps. Value numbering
	// rewrites instructions in place and never moves them, so its pcs
	// stay exact; markUniform fills in the loops' uniformity once.
	nodes []bnode
	// shapes holds, per pc, how the batch engine runs the instruction:
	// once per round on scalar slots, or lane by lane with some operands
	// read from their scalar slots (see markScalars).
	shapes []uint8
	// writes marks, per buffer parameter, whether some store writes it.
	writes []bool
	// trips holds the bounds of the first 64 loops whose bounds are
	// launch constants; loop i owns bit 1<<i of the non-empty mask.
	trips []tripBounds
	// batch holds the per-precision-binding vectorized specializations,
	// built lazily and shared by concurrent trials.
	batch batchCache
	// reference marks a twin made by Reference: Run walks it one work
	// item at a time instead of running the batch engine.
	reference bool
}

// Compile verifies, optimizes (constant folding, dead-let elimination,
// loop-invariant code motion, bytecode value numbering) and lowers a
// kernel to bytecode.
func Compile(k *Kernel) (*Program, error) {
	if err := Verify(k); err != nil {
		return nil, err
	}
	opt := Fold(k)
	opt = EliminateDeadLets(opt)
	opt = LICM(opt)
	p, err := lower(opt)
	if err != nil {
		return nil, err
	}
	p.optimize()
	markUniform(p)
	return p, nil
}

// lower emits the bytecode of a verified kernel.
func lower(k *Kernel) (*Program, error) {
	l := &lowerer{
		k:      k,
		iVars:  map[string]int32{},
		fVars:  map[string]int32{},
		writes: make([]bool, len(k.Bufs)),
	}
	l.block(k.Body)
	l.flush()
	if l.err != nil {
		return nil, fmt.Errorf("kernel %s: lowering: %w", k.Name, l.err)
	}
	return &Program{Kernel: k, code: l.code, nIReg: int(l.nextI), nFReg: int(l.nextF),
		nodes: l.nodes, writes: l.writes, trips: l.trips}, nil
}

// nonEmpty evaluates the recorded loop bounds for one launch's scalar
// arguments: bit i is set when loop i runs its body at least once.
func (p *Program) nonEmpty(args []int64) uint64 {
	var mask uint64
	for i, t := range p.trips {
		if t.start.value(args) < t.end.value(args) {
			mask |= 1 << i
		}
	}
	return mask
}

// MustCompile is Compile that panics on error.
func MustCompile(k *Kernel) *Program {
	p, err := Compile(k)
	if err != nil {
		panic("kir: " + err.Error())
	}
	return p
}

// Len returns the number of bytecode instructions, exposed for tests and
// diagnostics.
func (p *Program) Len() int { return len(p.code) }

type lowerer struct {
	k     *Kernel
	code  []inst
	iVars map[string]int32
	fVars map[string]int32
	nextI int32
	nextF int32
	err   error
	trips []tripBounds
	// nodes is the node list of the arm being lowered, and seqLo the
	// first pc of its open straight-line run.
	nodes  []bnode
	seqLo  int
	writes []bool
}

// launchConstOf returns e as a launch constant when it is an int literal
// or a scalar argument.
func (l *lowerer) launchConstOf(e Expr) (launchConst, bool) {
	switch e := e.(type) {
	case Int:
		return launchConst{v: e.V, param: -1}, true
	case Param:
		return launchConst{param: l.k.intParamIndex(e.Name)}, true
	}
	return launchConst{}, false
}

// tripBit records loop s's bounds when both are launch constants and
// returns its bit in the non-empty mask; 0 when they are not, or when 64
// loops already have a bit.
func (l *lowerer) tripBit(s For) uint64 {
	start, ok1 := l.launchConstOf(s.Start)
	end, ok2 := l.launchConstOf(s.End)
	if !ok1 || !ok2 || len(l.trips) == 64 {
		return 0
	}
	l.trips = append(l.trips, tripBounds{start, end})
	return 1 << (len(l.trips) - 1)
}

func (l *lowerer) fail(format string, args ...any) {
	if l.err == nil {
		l.err = fmt.Errorf(format, args...)
	}
}

func (l *lowerer) emit(in inst) int {
	l.code = append(l.code, in)
	return len(l.code) - 1
}

// flush closes the open straight-line run [seqLo, len(code)) into a bSeq
// node. It runs before a construct emits its first jump or compare, so no
// bSeq holds one.
func (l *lowerer) flush() {
	if l.seqLo < len(l.code) {
		l.nodes = append(l.nodes, bnode{kind: bSeq, lo: l.seqLo, hi: len(l.code)})
	}
	l.seqLo = len(l.code)
}

// open starts the node list of a loop body or if arm at the next pc and
// returns the enclosing list; close ends the arm and returns its list.
func (l *lowerer) open() (outer []bnode) {
	outer, l.nodes, l.seqLo = l.nodes, nil, len(l.code)
	return outer
}

func (l *lowerer) close(outer []bnode) (arm []bnode) {
	l.flush()
	arm, l.nodes = l.nodes, outer
	return arm
}

// add appends a finished construct; the next run starts after its jumps.
func (l *lowerer) add(nd bnode) {
	l.nodes = append(l.nodes, nd)
	l.seqLo = len(l.code)
}

func (l *lowerer) newI() int32 { r := l.nextI; l.nextI++; return r }
func (l *lowerer) newF() int32 { r := l.nextF; l.nextF++; return r }

func (l *lowerer) block(stmts []Stmt) {
	for _, s := range stmts {
		if l.err != nil {
			return
		}
		l.stmt(s)
	}
}

func (l *lowerer) stmt(s Stmt) {
	switch s := s.(type) {
	case Let:
		if s.Kind == KindInt {
			r := l.intExpr(s.Init)
			dst := l.newI()
			l.iVars[s.Name] = dst
			l.emit(inst{op: opIMov, dst: dst, a: r})
		} else {
			r := l.floatExpr(s.Init)
			dst := l.newF()
			l.fVars[s.Name] = dst
			l.emit(inst{op: opFMov, dst: dst, a: r})
		}
	case Assign:
		if dst, ok := l.iVars[s.Name]; ok {
			r := l.intExpr(s.Value)
			l.emit(inst{op: opIMov, dst: dst, a: r})
		} else if dst, ok := l.fVars[s.Name]; ok {
			r := l.floatExpr(s.Value)
			l.emit(inst{op: opFMov, dst: dst, a: r})
		} else {
			l.fail("assign to unknown variable %q", s.Name)
		}
	case Store:
		bi := l.k.BufIndex(s.Buf)
		idx := l.intExpr(s.Index)
		val := l.floatExpr(s.Value)
		l.emit(inst{op: opStore, imm: int64(bi), a: idx, b: val})
		l.writes[bi] = true
	case For:
		bit := l.tripBit(s)
		start := l.intExpr(s.Start)
		end := l.intExpr(s.End)
		loopVar := l.newI()
		l.iVars[s.Var] = loopVar
		l.emit(inst{op: opIMov, dst: loopVar, a: start})
		// Loop bounds are evaluated once (they are loop-invariant in this
		// IR by construction: the body cannot mutate params or gids, and
		// mutating a variable used in the bound is the author's problem —
		// matching C semantics would re-evaluate, so keep bounds simple).
		// The loop is its head ICmp, the exit JumpIfZ, the body with the
		// increment, and the backward Jump.
		condReg := l.newI()
		l.flush()
		head := l.emit(inst{op: opICmp, dst: condReg, a: loopVar, b: end, cmp: CmpLT})
		exitJump := l.emit(inst{op: opJumpIfZ, a: condReg})
		outer := l.open()
		l.block(s.Body)
		l.emit(inst{op: opIAddImm, dst: loopVar, a: loopVar, imm: 1})
		body := l.close(outer)
		l.emit(inst{op: opJump, imm: int64(head)})
		l.code[exitJump].imm = int64(len(l.code))
		l.add(bnode{kind: bLoop, pc: head, bit: bit, body: body})
		delete(l.iVars, s.Var)
	case If:
		// The if is the JumpIfZ over the then-arm and, with an else, the
		// Jump over the else-arm.
		cond := l.boolExpr(s.Cond)
		l.flush()
		elseJump := l.emit(inst{op: opJumpIfZ, a: cond})
		outer := l.open()
		l.block(s.Then)
		nd := bnode{kind: bIf, pc: elseJump, body: l.close(outer)}
		if len(s.Else) > 0 {
			endJump := l.emit(inst{op: opJump})
			outer = l.open()
			l.block(s.Else)
			nd.els = l.close(outer)
			l.code[endJump].imm = int64(len(l.code))
			l.code[elseJump].imm = int64(endJump + 1)
		} else {
			l.code[elseJump].imm = int64(len(l.code))
		}
		l.add(nd)
	default:
		l.fail("unknown statement %T", s)
	}
}

// intExpr compiles an int-kind expression and returns its register.
func (l *lowerer) intExpr(e Expr) int32 {
	switch e := e.(type) {
	case Int:
		dst := l.newI()
		l.emit(inst{op: opIConst, dst: dst, imm: e.V})
		return dst
	case Param:
		dst := l.newI()
		l.emit(inst{op: opIParam, dst: dst, imm: int64(l.k.intParamIndex(e.Name))})
		return dst
	case GID:
		dst := l.newI()
		l.emit(inst{op: opGID, dst: dst, imm: int64(e.Dim)})
		return dst
	case Var:
		if r, ok := l.iVars[e.Name]; ok {
			return r
		}
		l.fail("int variable %q not found", e.Name)
		return 0
	case Binary:
		a := l.intExpr(e.A)
		b := l.intExpr(e.B)
		dst := l.newI()
		var op opcode
		switch e.Op {
		case OpAdd:
			op = opIAdd
		case OpSub:
			op = opISub
		case OpMul:
			op = opIMul
		case OpDiv:
			op = opIDiv
		case OpMod:
			op = opIMod
		case OpMin:
			op = opIMin
		case OpMax:
			op = opIMax
		default:
			l.fail("int binary %v", e.Op)
		}
		l.emit(inst{op: op, dst: dst, a: a, b: b})
		return dst
	case Unary:
		a := l.intExpr(e.A)
		dst := l.newI()
		switch e.Op {
		case OpNeg:
			l.emit(inst{op: opINeg, dst: dst, a: a})
		case OpAbs:
			l.emit(inst{op: opIAbs, dst: dst, a: a})
		default:
			l.fail("int unary %v", e.Op)
		}
		return dst
	case Select:
		cond := l.boolExpr(e.Cond)
		a := l.intExpr(e.A)
		b := l.intExpr(e.B)
		dst := l.newI()
		l.emit(inst{op: opSelI, dst: dst, a: cond, b: a, c: b})
		return dst
	default:
		l.fail("expression %T is not int-kind", e)
		return 0
	}
}

// floatExpr compiles a float-kind expression and returns its register.
func (l *lowerer) floatExpr(e Expr) int32 {
	switch e := e.(type) {
	case Float:
		dst := l.newF()
		l.emit(inst{op: opFConst, dst: dst, fimm: e.V})
		return dst
	case Var:
		if r, ok := l.fVars[e.Name]; ok {
			return r
		}
		l.fail("float variable %q not found", e.Name)
		return 0
	case Load:
		idx := l.intExpr(e.Index)
		dst := l.newF()
		l.emit(inst{op: opLoad, dst: dst, a: idx, imm: int64(l.k.BufIndex(e.Buf))})
		return dst
	case Binary:
		// Peephole: a*b + c (either side) fuses to FMA with a single
		// rounding, matching default GPU compiler behaviour.
		if e.Op == OpAdd {
			if m, ok := e.A.(Binary); ok && m.Op == OpMul {
				return l.fma(m.A, m.B, e.B)
			}
			if m, ok := e.B.(Binary); ok && m.Op == OpMul {
				return l.fma(m.A, m.B, e.A)
			}
		}
		a := l.floatExpr(e.A)
		b := l.floatExpr(e.B)
		dst := l.newF()
		var op opcode
		switch e.Op {
		case OpAdd:
			op = opFAdd
		case OpSub:
			op = opFSub
		case OpMul:
			op = opFMul
		case OpDiv:
			op = opFDiv
		case OpMin:
			op = opFMin
		case OpMax:
			op = opFMax
		default:
			l.fail("float binary %v", e.Op)
		}
		l.emit(inst{op: op, dst: dst, a: a, b: b})
		return dst
	case Unary:
		if e.Op == OpItoF {
			a := l.intExpr(e.A)
			dst := l.newF()
			l.emit(inst{op: opItoF, dst: dst, a: a})
			return dst
		}
		a := l.floatExpr(e.A)
		dst := l.newF()
		switch e.Op {
		case OpNeg:
			l.emit(inst{op: opFNeg, dst: dst, a: a})
		case OpAbs:
			l.emit(inst{op: opFAbs, dst: dst, a: a})
		case OpSqrt:
			l.emit(inst{op: opFSqrt, dst: dst, a: a})
		case OpExp:
			l.emit(inst{op: opFExp, dst: dst, a: a})
		case OpLog:
			l.emit(inst{op: opFLog, dst: dst, a: a})
		default:
			l.fail("float unary %v", e.Op)
		}
		return dst
	case Select:
		cond := l.boolExpr(e.Cond)
		a := l.floatExpr(e.A)
		b := l.floatExpr(e.B)
		dst := l.newF()
		l.emit(inst{op: opSelF, dst: dst, a: cond, b: a, c: b})
		return dst
	default:
		l.fail("expression %T is not float-kind", e)
		return 0
	}
}

func (l *lowerer) fma(a, b, c Expr) int32 {
	ra := l.floatExpr(a)
	rb := l.floatExpr(b)
	rc := l.floatExpr(c)
	dst := l.newF()
	l.emit(inst{op: opFFMA, dst: dst, a: ra, b: rb, c: rc})
	return dst
}

// boolExpr compiles a bool-kind expression to a 0/1 int register.
func (l *lowerer) boolExpr(e Expr) int32 {
	switch e := e.(type) {
	case Compare:
		dst := l.newI()
		// Decide operand kind by probing: ints and floats compile through
		// different register files. The verifier guarantees both sides
		// share a kind, so check A's static kind.
		if l.exprIsInt(e.A) {
			a := l.intExpr(e.A)
			b := l.intExpr(e.B)
			l.emit(inst{op: opICmp, dst: dst, a: a, b: b, cmp: e.Op})
		} else {
			a := l.floatExpr(e.A)
			b := l.floatExpr(e.B)
			l.emit(inst{op: opFCmp, dst: dst, a: a, b: b, cmp: e.Op})
		}
		return dst
	case Logic:
		a := l.boolExpr(e.A)
		b := l.boolExpr(e.B)
		dst := l.newI()
		if e.Op == LogicAnd {
			l.emit(inst{op: opBAnd, dst: dst, a: a, b: b})
		} else {
			l.emit(inst{op: opBOr, dst: dst, a: a, b: b})
		}
		return dst
	default:
		l.fail("expression %T is not bool-kind", e)
		return 0
	}
}

// exprIsInt reports whether a verified expression has int kind. Variables
// are resolved through the lowerer's register maps, everything else by
// structure; verification guarantees the answer is well-defined.
func (l *lowerer) exprIsInt(e Expr) bool {
	switch e := e.(type) {
	case Int, Param, GID:
		return true
	case Float, Load:
		return false
	case Var:
		_, ok := l.iVars[e.Name]
		return ok
	case Binary:
		return l.exprIsInt(e.A)
	case Unary:
		if e.Op == OpItoF {
			return false
		}
		return l.exprIsInt(e.A)
	case Select:
		return l.exprIsInt(e.A)
	default:
		return false
	}
}
