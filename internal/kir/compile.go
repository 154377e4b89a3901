package kir

import (
	"encoding/binary"
	"math"
	"sync"

	"repro/internal/precision"
)

// This file holds a compiled Program's control tree and specializes the
// Program for the batch (vectorized strip) engine. The lowerer builds the
// structured control tree as it emits each construct's jumps, and
// Compile runs markUniform on it once, after value numbering: a
// lane-variance analysis that marks the loops whose head compare is
// uniform among the lanes active there and the int registers the batch
// engine keeps as one scalar per strip. Per tape key — one concrete
// precision binding (the per-buffer compute precisions of a launch) and
// one non-empty mask (which launch-constant loops run at least once; see
// Program.nonEmpty) — it statically resolves the result precision of
// every floating-point instruction. The tree engine tracks precision
// dynamically per register; the batch engine instead proves at
// specialization time that every executed float operation has a
// single possible result precision, so the per-lane inner loops carry
// no precision bookkeeping at all. The mask is what lets an
// accumulator that starts as an untyped constant resolve: after a
// loop known to run, its zero-trip path is not real. Where the proof
// still fails (lane-divergent precision through float selects feeding
// arithmetic, or a launch where such a loop runs zero times) the key
// is a dyn key, and Run executes it on the reference walker.

// bnodeKind classifies batch execution tree nodes.
type bnodeKind uint8

const (
	// bSeq is a straight-line run of instructions [lo, hi).
	bSeq bnodeKind = iota
	// bLoop is a counted loop; pc is the head ICmp, body the loop body
	// (including the increment instruction).
	bLoop
	// bIf is a conditional; pc is the JumpIfZ over the then-branch.
	bIf
)

// bnode is one node of the structured execution tree the batch engine
// walks. The tree references instruction spans of the original bytecode;
// it never duplicates instructions, so the batch engine executes exactly
// the stream the tree engine does.
type bnode struct {
	kind   bnodeKind
	lo, hi int // bSeq: instruction span
	pc     int // bLoop: head ICmp pc; bIf: JumpIfZ pc
	body   []bnode
	els    []bnode
	// uniform (bLoop only) marks loops whose head compare reads only
	// registers uniform among the lanes active at the head: every active
	// lane agrees on the condition each round, so the executor evaluates
	// it once per round instead of per lane and never filters the lane
	// list.
	uniform bool
	// headLive (uniform bLoop only) marks heads whose compare result
	// register is read by some instruction other than the loop's own
	// exit branch (LVN may forward it); the scalar result must then be
	// broadcast into the column.
	headLive bool
	// bit (bLoop only) is the loop's bit in the non-empty mask; 0 when
	// its bounds are not launch constants.
	bit uint64
}

// batchCache holds the lazily-built precision tapes of a Program, keyed
// by the launch's non-empty mask and the effective compute precision of
// each buffer argument; keys without a static resolution are marked dyn.
type batchCache struct {
	mu    sync.Mutex
	tapes map[string]*batchProg
}

// batchProg is one (kernel, precision binding) specialization.
type batchProg struct {
	p *Program
	// prec is the statically-resolved result precision per instruction:
	// the rounding target and flop bucket of float arithmetic. Invalid
	// means untyped (no rounding, charged as Double at the end), exactly
	// mirroring the tree engine's dynamic promotion. nil when dyn.
	prec []precision.Type
	// dyn marks keys whose precision dataflow could not be resolved
	// statically: a select between different compute precisions feeding
	// arithmetic, or an accumulator read after a launch-constant loop
	// that runs zero times in this launch. Run executes a dyn key on the
	// reference walker, which defines the semantics.
	dyn  bool
	pool sync.Pool // *batchState
}

// batchFor returns the batch specialization for the effective compute
// precisions ca (one entry per buffer argument, storage precision when
// no in-kernel override applies) and the launch's non-empty mask.
func (p *Program) batchFor(ca []precision.Type, mask uint64) *batchProg {
	var kb [24]byte
	key := binary.LittleEndian.AppendUint64(kb[:0], mask)
	for _, t := range ca {
		key = append(key, byte(t))
	}
	c := &p.batch
	c.mu.Lock()
	defer c.mu.Unlock()
	if bp, ok := c.tapes[string(key)]; ok {
		return bp
	}
	if c.tapes == nil {
		c.tapes = map[string]*batchProg{}
	}
	bp := &batchProg{p: p}
	if prec, ok := p.inferPrec(ca, mask); ok {
		bp.prec = prec
	} else {
		bp.dyn = true
	}
	c.tapes[string(key)] = bp
	return bp
}

// precRange bounds the possible dynamic precision tags of one float
// register at one program point: [lo, hi] in precision.Type order with
// Invalid (untyped) at the bottom. Because the tree engine's promotion
// is max(), an operation's result precision is statically determined
// exactly when max over the operand upper bounds equals max over the
// lower bounds — which lets untyped-initialized accumulators (range
// [untyped, T]) still resolve once promoted with a typed operand.
type precRange struct{ lo, hi uint8 }

func maxU8(a, b uint8) uint8 {
	if a > b {
		return a
	}
	return b
}

func minU8(a, b uint8) uint8 {
	if a < b {
		return a
	}
	return b
}

// joinRange is the smallest range covering a and b.
func joinRange(a, b precRange) precRange {
	return precRange{minU8(a.lo, b.lo), maxU8(a.hi, b.hi)}
}

// joinStates joins src into dst register by register and reports
// whether dst changed.
func joinStates(dst, src []precRange) bool {
	changed := false
	for r := range dst {
		if j := joinRange(dst[r], src[r]); j != dst[r] {
			dst[r] = j
			changed = true
		}
	}
	return changed
}

// precStep applies one instruction's effect on the float-register
// precision state. For an instruction that rounds or counts float ops it
// returns the range of its result precision and ok=true; the tape holds
// a static precision for it only if that range is a single point.
func precStep(st []precRange, in *inst, ca []precision.Type) (precRange, bool) {
	switch in.op {
	case opFConst, opItoF:
		st[in.dst] = precRange{}
	case opFMov:
		st[in.dst] = st[in.a]
	case opFAdd, opFSub, opFMul, opFDiv, opFMin, opFMax:
		st[in.dst] = promoteRange(st[in.a], st[in.b])
		return st[in.dst], true
	case opFFMA:
		st[in.dst] = promoteRange(promoteRange(st[in.a], st[in.b]), st[in.c])
		return st[in.dst], true
	case opFNeg, opFAbs, opFSqrt, opFExp, opFLog:
		st[in.dst] = st[in.a]
		return st[in.dst], true
	case opLoad:
		t := uint8(ca[in.imm])
		st[in.dst] = precRange{t, t}
	case opSelF:
		// The select result's tag is lane-dependent when the branches
		// differ; that is fine as long as no rounding/counting op
		// consumes it (stores round at storage precision regardless).
		st[in.dst] = joinRange(st[in.b], st[in.c])
	}
	return precRange{}, false
}

// promoteRange is the range of promote2(x, y) for x in a and y in b:
// the tree engine's promotion of two operands.
func promoteRange(a, b precRange) precRange {
	return precRange{maxU8(a.lo, b.lo), maxU8(a.hi, b.hi)}
}

// inferPrec runs the precision dataflow over the structure tree and
// resolves every float instruction's result precision for the binding
// ca under the launch's non-empty mask. ok=false means some executed
// operation's precision could differ across lanes, and the key is dyn.
func (p *Program) inferPrec(ca []precision.Type, mask uint64) ([]precision.Type, bool) {
	// res joins each rounding instruction's result range over all its
	// visits; an instruction never visited keeps the empty range lo > hi.
	res := make([]precRange, len(p.code))
	for pc := range res {
		res[pc] = precRange{lo: math.MaxUint8}
	}
	// walk carries the state st through nds. An if joins its two arms. A
	// loop iterates its body from join(entry, body-out) until nothing
	// changes; it exits with that join, or with body-out alone when the
	// mask proves it runs at least once, since then it can only exit
	// after its body.
	var walk func(nds []bnode, st []precRange)
	walk = func(nds []bnode, st []precRange) {
		for i := range nds {
			nd := &nds[i]
			switch nd.kind {
			case bSeq:
				for pc := nd.lo; pc < nd.hi; pc++ {
					if r, ok := precStep(st, &p.code[pc], ca); ok {
						res[pc] = joinRange(res[pc], r)
					}
				}
			case bIf:
				els := append([]precRange(nil), st...)
				walk(nd.body, st)
				walk(nd.els, els)
				joinStates(st, els)
			case bLoop:
				head := append([]precRange(nil), st...)
				for {
					copy(st, head)
					walk(nd.body, st)
					if !joinStates(head, st) {
						break
					}
				}
				if mask&nd.bit == 0 {
					copy(st, head)
				}
			}
		}
	}
	walk(p.nodes, make([]precRange, p.nFReg)) // entry: all untyped, like a fresh register file

	prec := make([]precision.Type, len(p.code))
	for pc, r := range res {
		switch {
		case r.lo < r.hi:
			return nil, false
		case r.lo == r.hi:
			prec[pc] = precision.Type(r.hi)
		}
	}
	return prec, true
}

// markUniform runs a lane-variance dataflow over the structure tree and
// flags the loops whose head compare is uniform among the lanes active
// at the head: every active lane agrees on the condition each round, so
// the executor evaluates it once per round and keeps the lane list
// intact. The state holds, per register, whether it may differ among
// the lanes active at this point (the uniform, consecutive and varying
// value classes of Karrenberg & Hack, CGO 2011, with consecutive folded
// into varying). Constants and scalar arguments are uniform; gids and
// loads vary; other results vary when an operand does. An if arm or a
// loop round only shrinks the active set, so a uniform register stays
// uniform inside it. Lanes that rejoin after a divergent if or loop have
// different histories, so every register written inside one varies
// after it; and since the then-arm runs first and a scalar register
// (see markScalars) is shared by the whole strip, every register the
// then-arm of a divergent if writes varies in its else-arm too. A loop
// iterates its head state from join(entry, back edge) until nothing
// changes. The analysis is binding-independent: Compile and
// CompileUnoptimized run it once, on the final bytecode, and it ends by
// classifying the scalar registers.
func markUniform(p *Program) {
	nI := p.nIReg
	// vary collects, per pc, which int operands may differ among the
	// lanes active there, ORed over every visit: the states only grow,
	// so a loop body's instructions end at the loop's fixpoint, not at
	// the body's first visit.
	vary := make([]uint8, len(p.code))
	var walk func(nds []bnode, v []bool)
	walk = func(nds []bnode, v []bool) {
		for i := range nds {
			nd := &nds[i]
			switch nd.kind {
			case bSeq:
				for pc := nd.lo; pc < nd.hi; pc++ {
					in := &p.code[pc]
					for j := 0; j < intArgs(in); j++ {
						if v[in.arg(j)] {
							vary[pc] |= 1 << j
						}
					}
					varyStep(v, nI, in)
				}
			case bIf:
				div := v[p.code[nd.pc].a]
				els := append([]bool(nil), v...)
				walk(nd.body, v)
				if div {
					p.markWritten(nd.body, els)
				}
				walk(nd.els, els)
				orInto(v, els)
				if div {
					p.markWritten(nd.body, v)
					p.markWritten(nd.els, v)
				}
			case bLoop:
				head := &p.code[nd.pc]
				h := append([]bool(nil), v...)
				for {
					copy(v, h)
					varyStep(v, nI, head)
					walk(nd.body, v)
					if !orInto(h, v) {
						break
					}
				}
				copy(v, h)
				varyStep(v, nI, head)
				nd.uniform = !h[head.a] && !h[head.b]
				nd.headLive = nd.uniform && intRegReadElsewhere(p.code, head.dst, nd.pc+1)
				if !nd.uniform {
					p.markWritten(nd.body, v)
				}
			}
		}
	}
	// Entry: nothing is written yet, and no item reads a register before
	// writing it, so every register may start uniform.
	walk(p.nodes, make([]bool, nI+p.nFReg))
	p.markScalars(vary)
}

// Instruction shapes on the batch engine (Program.shapes).
const (
	// shOnce marks an instruction that writes a scalar register: it runs
	// once per round, on the scalar slot past the strip's last lane.
	shOnce uint8 = 1 << iota
	// shA and shB mark a lane instruction (or a uniform loop head) that
	// reads operand a or b from its scalar slot.
	shA
	shB
)

// markScalars classifies the int registers into scalars and columns and
// records each instruction's shape in p.shapes. A register is scalar
// when every instruction that writes it is an int op that cannot fault,
// whose operands are uniform there and scalar themselves, and every
// reader takes it, uniform there, as a scalar: an op that writes a
// scalar register, a uniform loop head, the one scalar operand of an
// iadd, isub or imul, or a load index (a broadcast load, which reads,
// rounds and fills once). Every other register is a column. vary holds
// each instruction's varying operands at its loop fixpoint. Starting
// from every register whose writers qualify, the passes demote
// registers to columns until no rule is broken.
func (p *Program) markScalars(vary []uint8) {
	scalar := make([]bool, p.nIReg)
	for r := range scalar {
		scalar[r] = true
	}
	for pc := range p.code {
		if r := p.intDst(pc); r >= 0 && (!onceOp(p.code[pc].op) || vary[pc] != 0) {
			scalar[r] = false
		}
	}
	var pass func(nds []bnode) bool
	pass = func(nds []bnode) bool {
		changed := false
		demote := func(r int32) {
			changed = changed || scalar[r]
			scalar[r] = false
		}
		for i := range nds {
			nd := &nds[i]
			switch nd.kind {
			case bSeq:
				for pc := nd.lo; pc < nd.hi; pc++ {
					in := &p.code[pc]
					if r := p.intDst(pc); r >= 0 && scalar[r] {
						// A once-per-round op reads every operand from
						// its scalar slot.
						for j := 0; j < intArgs(in); j++ {
							if !scalar[in.arg(j)] {
								demote(r)
								break
							}
						}
						continue
					}
					for j := 0; j < intArgs(in); j++ {
						if !takesScalar(in, j, vary[pc], scalar) {
							demote(in.arg(j))
						}
					}
				}
			case bLoop:
				head := &p.code[nd.pc]
				demote(head.dst)
				if !nd.uniform {
					demote(head.a)
					demote(head.b)
				}
				changed = pass(nd.body) || changed
			case bIf:
				demote(p.code[nd.pc].a)
				changed = pass(nd.body) || changed
				changed = pass(nd.els) || changed
			}
		}
		return changed
	}
	for pass(p.nodes) {
	}
	p.shapes = make([]uint8, len(p.code))
	for pc := range p.code {
		in := &p.code[pc]
		if r := p.intDst(pc); r >= 0 && scalar[r] {
			p.shapes[pc] = shOnce
			continue
		}
		for j := 0; j < intArgs(in) && j < 2; j++ {
			if scalar[in.arg(j)] {
				p.shapes[pc] |= shA << j
			}
		}
	}
}

// onceOp reports whether op may run once per round on scalar slots: an
// int op over int operands that cannot fault (division and modulo fault
// lane by lane on a zero divisor).
func onceOp(op opcode) bool {
	switch op {
	case opIConst, opIMov, opIAdd, opIAddImm, opISub, opIMul, opIMin, opIMax,
		opINeg, opIAbs, opIParam, opICmp, opBAnd, opBOr, opSelI:
		return true
	}
	return false
}

// takesScalar reports whether a lane instruction can read its int
// operand j from the scalar slot: a load index, or the one scalar
// operand of an iadd, isub or imul (b only when a is a column), and only
// where the operand is uniform.
func takesScalar(in *inst, j int, vary uint8, scalar []bool) bool {
	if vary>>j&1 != 0 {
		return false
	}
	switch in.op {
	case opLoad:
		return true
	case opIAdd, opISub, opIMul:
		return j == 0 || !scalar[in.a]
	}
	return false
}

// intDst returns the int register the instruction at pc writes, or -1.
func (p *Program) intDst(pc int) int32 {
	if r := dstSlot(&p.code[pc], p.nIReg); r >= 0 && r < p.nIReg {
		return int32(r)
	}
	return -1
}

// intArgs returns how many of in's operands a, b and c, in that order,
// are int registers.
func intArgs(in *inst) int {
	switch in.op {
	case opIMov, opIAddImm, opINeg, opIAbs, opItoF, opLoad, opStore, opSelF, opJumpIfZ:
		return 1
	case opIAdd, opISub, opIMul, opIDiv, opIMod, opIMin, opIMax,
		opICmp, opBAnd, opBOr:
		return 2
	case opSelI:
		return 3
	}
	return 0
}

// arg returns operand j of in: a, b or c.
func (in *inst) arg(j int) int32 {
	switch j {
	case 0:
		return in.a
	case 1:
		return in.b
	}
	return in.c
}

// orInto sets dst to dst OR src element-wise and reports whether dst
// changed.
func orInto(dst, src []bool) bool {
	changed := false
	for r, x := range src {
		if x && !dst[r] {
			dst[r] = true
			changed = true
		}
	}
	return changed
}

// varyStep applies one instruction to the lane-variance state v: int
// register r at v[r], float register r at v[nI+r].
func varyStep(v []bool, nI int, in *inst) {
	f := func(r int32) bool { return v[nI+int(r)] }
	switch in.op {
	case opIConst, opIParam:
		v[in.dst] = false
	case opGID:
		v[in.dst] = true
	case opIMov, opIAddImm, opINeg, opIAbs:
		v[in.dst] = v[in.a]
	case opIAdd, opISub, opIMul, opIDiv, opIMod, opIMin, opIMax,
		opICmp, opBAnd, opBOr:
		v[in.dst] = v[in.a] || v[in.b]
	case opSelI:
		v[in.dst] = v[in.a] || v[in.b] || v[in.c]
	case opFCmp:
		v[in.dst] = f(in.a) || f(in.b)
	case opFConst:
		v[nI+int(in.dst)] = false
	case opFMov, opFNeg, opFAbs, opFSqrt, opFExp, opFLog:
		v[nI+int(in.dst)] = f(in.a)
	case opFAdd, opFSub, opFMul, opFDiv, opFMin, opFMax:
		v[nI+int(in.dst)] = f(in.a) || f(in.b)
	case opFFMA:
		v[nI+int(in.dst)] = f(in.a) || f(in.b) || f(in.c)
	case opItoF:
		v[nI+int(in.dst)] = v[in.a]
	case opSelF:
		v[nI+int(in.dst)] = v[in.a] || f(in.b) || f(in.c)
	case opLoad:
		// Loads read shared buffers that in-strip stores may have written
		// lane-dependently.
		v[nI+int(in.dst)] = true
	}
}

// markWritten marks every register an instruction in nds writes as
// varying, loop heads included.
func (p *Program) markWritten(nds []bnode, v []bool) {
	for i := range nds {
		nd := &nds[i]
		switch nd.kind {
		case bSeq:
			for pc := nd.lo; pc < nd.hi; pc++ {
				if r := dstSlot(&p.code[pc], p.nIReg); r >= 0 {
					v[r] = true
				}
			}
		case bLoop:
			v[p.code[nd.pc].dst] = true
			p.markWritten(nd.body, v)
		case bIf:
			p.markWritten(nd.body, v)
			p.markWritten(nd.els, v)
		}
	}
}

// dstSlot returns the register that in writes, numbered as in varyStep
// (float registers after the int ones), or -1 when it writes none.
func dstSlot(in *inst, nI int) int {
	switch {
	case in.op >= opIConst && in.op <= opGID, in.op == opICmp, in.op == opFCmp,
		in.op == opBAnd, in.op == opBOr, in.op == opSelI:
		return int(in.dst)
	case in.op >= opFConst && in.op <= opItoF, in.op == opLoad, in.op == opSelF:
		return nI + int(in.dst)
	}
	return -1
}

// intRegReadElsewhere reports whether integer register reg is read by any
// instruction other than the one at exceptPC. Used to decide whether a
// uniform loop head's compare result must still be materialized in its
// column (LVN may forward the compare to a later user).
func intRegReadElsewhere(code []inst, reg int32, exceptPC int) bool {
	for pc := range code {
		if pc == exceptPC {
			continue
		}
		for j := 0; j < intArgs(&code[pc]); j++ {
			if code[pc].arg(j) == reg {
				return true
			}
		}
	}
	return false
}
