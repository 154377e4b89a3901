package kir

import (
	"encoding/binary"
	"math"
	"sort"
	"sync"

	"repro/internal/precision"
)

// This file specializes a lowered Program for the batch (vectorized
// strip) engine. Once per Program it rebuilds the structured control
// tree from the lowerer's ctrl records and runs a lane-variance
// analysis that marks the loops whose head compare is uniform among
// the lanes active there. Per tape key — one concrete precision
// binding (the per-buffer compute precisions of a launch) and one
// non-empty mask (which launch-constant loops run at least once; see
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
// is a dyn key, and Run executes it on the reference walker. Only a
// program whose control tree cannot be rebuilt (bytecode the lowerer
// did not produce) has no specialization; Run rejects it with an
// error.

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

// batchCache holds the lazily-built batch specializations of a
// Program. The structure tree and its uniform loops are
// binding-independent and built once; the precision tapes are keyed
// by the launch's non-empty mask and the effective compute precision
// of each buffer argument; keys without a static resolution are
// marked dyn. structOK false (bytecode the lowerer did not produce)
// means no binding has a tape and Run returns an error.
type batchCache struct {
	mu       sync.Mutex
	built    bool
	nodes    []bnode
	depth    int
	structOK bool
	tapes    map[string]*batchProg
}

// batchProg is one (kernel, precision binding) specialization.
type batchProg struct {
	p     *Program
	nodes []bnode
	depth int
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
// no in-kernel override applies) and the launch's non-empty mask, or nil
// when p's control tree cannot be rebuilt.
func (p *Program) batchFor(ca []precision.Type, mask uint64) *batchProg {
	var kb [24]byte
	key := binary.LittleEndian.AppendUint64(kb[:0], mask)
	for _, t := range ca {
		key = append(key, byte(t))
	}
	c := &p.batch
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.built {
		c.built = true
		c.nodes, c.depth, c.structOK = buildTree(p)
		if c.structOK {
			markUniform(p, c.nodes)
		}
		c.tapes = map[string]*batchProg{}
	}
	if !c.structOK {
		return nil
	}
	if bp, ok := c.tapes[string(key)]; ok {
		return bp
	}
	bp := &batchProg{p: p, nodes: c.nodes, depth: c.depth}
	if prec, ok := p.inferPrec(c.nodes, ca, mask); ok {
		bp.prec = prec
	} else {
		bp.dyn = true
	}
	c.tapes[string(key)] = bp
	return bp
}

// buildTree reconstructs the structured control tree of p's bytecode
// from the lowerer's ctrl records. It returns ok=false when the bytecode
// contains control flow the records do not describe (which cannot happen
// for lowerer-produced programs; the check keeps the engine safe against
// future bytecode producers).
func buildTree(p *Program) (nodes []bnode, depth int, ok bool) {
	recs := make([]ctrlRec, len(p.ctrl))
	copy(recs, p.ctrl)
	sort.Slice(recs, func(i, j int) bool { return recs[i].start < recs[j].start })
	b := &treeBuilder{p: p, recs: recs, ok: true}
	nodes = b.span(0, len(p.code))
	if !b.ok {
		return nil, 0, false
	}
	return nodes, treeDepth(nodes), true
}

type treeBuilder struct {
	p    *Program
	recs []ctrlRec
	ok   bool
}

// next returns the first record starting at or after pos and before hi.
func (b *treeBuilder) next(pos, hi int) *ctrlRec {
	i := sort.Search(len(b.recs), func(i int) bool { return b.recs[i].start >= pos })
	if i < len(b.recs) && b.recs[i].start < hi {
		return &b.recs[i]
	}
	return nil
}

// span builds the node list for instruction range [lo, hi).
func (b *treeBuilder) span(lo, hi int) []bnode {
	var out []bnode
	pos := lo
	for pos < hi && b.ok {
		r := b.next(pos, hi)
		if r == nil {
			out = b.seq(out, pos, hi)
			break
		}
		if r.end > hi {
			b.ok = false // construct straddles the span: malformed nesting
			return nil
		}
		out = b.seq(out, pos, r.start)
		if r.loop {
			// head ICmp; exit JumpIfZ; body+increment; backward Jump.
			code := b.p.code
			if code[r.start].op != opICmp || code[r.start+1].op != opJumpIfZ ||
				code[r.end-1].op != opJump || int(code[r.end-1].imm) != r.start ||
				int(code[r.start+1].imm) != r.end {
				b.ok = false
				return nil
			}
			out = append(out, bnode{kind: bLoop, pc: r.start, bit: r.bit, body: b.span(r.start+2, r.end-1)})
		} else {
			if b.p.code[r.start].op != opJumpIfZ {
				b.ok = false
				return nil
			}
			nd := bnode{kind: bIf, pc: r.start}
			if r.thenEnd < 0 {
				nd.body = b.span(r.start+1, r.end)
			} else {
				nd.body = b.span(r.start+1, r.thenEnd)
				nd.els = b.span(r.thenEnd+1, r.end)
			}
			out = append(out, nd)
		}
		pos = r.end
	}
	return out
}

// seq appends a straight-line node for [lo, hi), verifying the span
// really is jump-free.
func (b *treeBuilder) seq(out []bnode, lo, hi int) []bnode {
	if lo >= hi {
		return out
	}
	for pc := lo; pc < hi; pc++ {
		if op := b.p.code[pc].op; op == opJump || op == opJumpIfZ {
			b.ok = false
			return out
		}
	}
	return append(out, bnode{kind: bSeq, lo: lo, hi: hi})
}

// treeDepth returns the number of lane-list scratch levels the executor
// needs: one per nested loop, two per nested if (then + else partitions).
func treeDepth(nodes []bnode) int {
	max := 0
	for i := range nodes {
		var d int
		switch nodes[i].kind {
		case bLoop:
			d = 1 + treeDepth(nodes[i].body)
		case bIf:
			d = 2 + treeDepth(nodes[i].body)
			if e := 2 + treeDepth(nodes[i].els); e > d {
				d = e
			}
		}
		if d > max {
			max = d
		}
	}
	return max
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
func (p *Program) inferPrec(nodes []bnode, ca []precision.Type, mask uint64) ([]precision.Type, bool) {
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
	walk(nodes, make([]precRange, p.nFReg)) // entry: all untyped, like a fresh register file

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
// after it. A loop iterates its head state from join(entry, back edge)
// until nothing changes. The analysis is binding-independent and runs
// once per Program.
func markUniform(p *Program, nodes []bnode) {
	nI := p.nIReg
	var walk func(nds []bnode, v []bool)
	walk = func(nds []bnode, v []bool) {
		for i := range nds {
			nd := &nds[i]
			switch nd.kind {
			case bSeq:
				for pc := nd.lo; pc < nd.hi; pc++ {
					varyStep(v, nI, &p.code[pc])
				}
			case bIf:
				div := v[p.code[nd.pc].a]
				els := append([]bool(nil), v...)
				walk(nd.body, v)
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
	walk(nodes, make([]bool, nI+p.nFReg))
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
		in := &code[pc]
		switch in.op {
		case opIMov, opIAddImm, opINeg, opIAbs, opItoF:
			if in.a == reg {
				return true
			}
		case opIAdd, opISub, opIMul, opIDiv, opIMod, opIMin, opIMax,
			opICmp, opBAnd, opBOr:
			if in.a == reg || in.b == reg {
				return true
			}
		case opSelI:
			if in.a == reg || in.b == reg || in.c == reg {
				return true
			}
		case opSelF, opJumpIfZ:
			if in.a == reg {
				return true
			}
		case opLoad, opStore:
			if in.a == reg {
				return true
			}
		}
	}
	return false
}
