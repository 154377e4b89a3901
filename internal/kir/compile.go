package kir

import (
	"sort"
	"sync"

	"repro/internal/precision"
)

// This file specializes a lowered Program for the batch (vectorized
// strip) engine: it rebuilds the structured control tree from the
// lowerer's ctrl records and statically resolves the result precision of
// every floating-point instruction for one concrete precision binding
// (the per-buffer compute precisions of a launch). The tree engine
// tracks precision dynamically per register; the batch engine instead
// proves at specialization time that every executed float operation has
// a single possible result precision, so the per-lane inner loops carry
// no precision bookkeeping at all. Bindings where that proof fails
// (lane-divergent precision through float selects feeding arithmetic)
// get a dyn tape instead, which carries the tree engine's dynamic
// precision per lane. Only a program whose control tree cannot be
// rebuilt (bytecode the lowerer did not produce) has no specialization;
// Run rejects it with an error.

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
	// lane-invariant registers: every active lane agrees on the
	// condition each round, so the executor evaluates it once per strip
	// instead of per lane and never filters the lane list.
	uniform bool
	// headLive (uniform bLoop only) marks heads whose compare result
	// register is read by some instruction other than the loop's own
	// exit branch (LVN may forward it); the scalar result must then be
	// broadcast into the column.
	headLive bool
}

// batchCache holds the lazily-built batch specializations of a Program.
// The structure tree is binding-independent and built once; the
// per-binding precision tapes are keyed by the effective compute
// precision of each buffer argument; bindings without a static
// resolution get a dyn tape. structOK false (bytecode the lowerer did
// not produce) means no binding has a tape and Run returns an error.
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
	// dyn marks bindings whose precision dataflow could not be resolved
	// statically (e.g. an accumulator read after a possibly-zero-trip
	// loop, or a select between different compute precisions feeding
	// arithmetic). The executor then tracks precision per lane in
	// columns — still vectorized, just with the tree engine's dynamic
	// promotion done lane-wise.
	dyn  bool
	pool sync.Pool // *batchState
}

// batchFor returns the batch specialization for the effective compute
// precisions ca (one entry per buffer argument, storage precision when
// no in-kernel override applies), or nil when p's control tree cannot
// be rebuilt.
func (p *Program) batchFor(ca []precision.Type) *batchProg {
	var kb [8]byte
	key := kb[:0]
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
	if prec, ok := p.inferPrec(ca); ok {
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
			out = append(out, bnode{kind: bLoop, pc: r.start, body: b.span(r.start+2, r.end-1)})
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

// precStep applies one instruction's effect on the float-register
// precision state and returns the instruction's static result precision
// (its rounding target and flop bucket) plus whether that precision is
// statically determined. Instructions that neither round nor count
// float ops return ok=true unconditionally.
func precStep(st []precRange, in *inst, ca []precision.Type) (precision.Type, bool) {
	switch in.op {
	case opFConst, opItoF:
		st[in.dst] = precRange{}
		return precision.Invalid, true
	case opFMov:
		st[in.dst] = st[in.a]
		return precision.Invalid, true
	case opFAdd, opFSub, opFMul, opFDiv, opFMin, opFMax:
		a, b := st[in.a], st[in.b]
		r := precRange{maxU8(a.lo, b.lo), maxU8(a.hi, b.hi)}
		st[in.dst] = r
		return precision.Type(r.hi), r.lo == r.hi
	case opFFMA:
		a, b, c := st[in.a], st[in.b], st[in.c]
		r := precRange{maxU8(maxU8(a.lo, b.lo), c.lo), maxU8(maxU8(a.hi, b.hi), c.hi)}
		st[in.dst] = r
		return precision.Type(r.hi), r.lo == r.hi
	case opFNeg, opFAbs, opFSqrt, opFExp, opFLog:
		r := st[in.a]
		st[in.dst] = r
		return precision.Type(r.hi), r.lo == r.hi
	case opLoad:
		t := ca[in.imm]
		st[in.dst] = precRange{uint8(t), uint8(t)}
		return t, true
	case opSelF:
		b, c := st[in.b], st[in.c]
		// The select result's tag is lane-dependent when the branches
		// differ; that is fine as long as no rounding/counting op
		// consumes it (stores round at storage precision regardless).
		st[in.dst] = precRange{minU8(b.lo, c.lo), maxU8(b.hi, c.hi)}
		return precision.Invalid, true
	default:
		return precision.Invalid, true
	}
}

// inferPrec runs a forward dataflow fixpoint over the bytecode CFG and
// resolves every float instruction's result precision for the binding
// ca. ok=false means some executed operation's precision could differ
// across lanes, and the binding gets a dyn tape.
func (p *Program) inferPrec(ca []precision.Type) ([]precision.Type, bool) {
	bounds := blockBoundaries(p.code)
	nb := len(bounds) - 1
	in := make([][]precRange, nb)
	in[0] = make([]precRange, p.nFReg) // entry: all untyped, like a fresh register file

	work := []int{0}
	queued := make([]bool, nb)
	queued[0] = true
	st := make([]precRange, p.nFReg)
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b] = false
		copy(st, in[b])
		lo, hi := bounds[b], bounds[b+1]
		for pc := lo; pc < hi; pc++ {
			precStep(st, &p.code[pc], ca)
		}
		for _, s := range blockSuccs(p.code, b, bounds) {
			if in[s] == nil {
				in[s] = make([]precRange, p.nFReg)
				copy(in[s], st)
				if !queued[s] {
					queued[s] = true
					work = append(work, s)
				}
				continue
			}
			changed := false
			dst := in[s]
			for r := range dst {
				lo := minU8(dst[r].lo, st[r].lo)
				hi := maxU8(dst[r].hi, st[r].hi)
				if lo != dst[r].lo || hi != dst[r].hi {
					dst[r] = precRange{lo, hi}
					changed = true
				}
			}
			if changed && !queued[s] {
				queued[s] = true
				work = append(work, s)
			}
		}
	}

	// Final pass: record per-pc result precisions and check that every
	// reachable float operation resolved to a single precision.
	prec := make([]precision.Type, len(p.code))
	for b := 0; b < nb; b++ {
		if in[b] == nil {
			continue // unreachable: nothing to record
		}
		copy(st, in[b])
		for pc := bounds[b]; pc < bounds[b+1]; pc++ {
			t, ok := precStep(st, &p.code[pc], ca)
			if !ok {
				return nil, false
			}
			prec[pc] = t
		}
	}
	return prec, true
}

// blockSuccs returns the successor block indices of block b.
func blockSuccs(code []inst, b int, bounds []int) []int {
	nb := len(bounds) - 1
	lo, hi := bounds[b], bounds[b+1]
	if hi <= lo {
		return nil
	}
	blockOf := func(pc int) int {
		return sort.Search(nb, func(i int) bool { return bounds[i+1] > pc })
	}
	last := code[hi-1]
	switch last.op {
	case opJump:
		if int(last.imm) >= len(code) {
			return nil
		}
		return []int{blockOf(int(last.imm))}
	case opJumpIfZ:
		succs := make([]int, 0, 2)
		if int(last.imm) < len(code) {
			succs = append(succs, blockOf(int(last.imm)))
		}
		if b+1 < nb {
			succs = append(succs, b+1)
		}
		return succs
	default:
		if b+1 < nb {
			return []int{b + 1}
		}
		return nil
	}
}

// markUniform runs a lane-variance dataflow over the structure tree and
// flags loops whose head compare is lane-invariant (uniform): every lane
// of a strip agrees on the condition each round, so the executor can
// evaluate it once per strip, keep the lane list intact, and preserve
// the dense-lane fast paths. Variance sources are the gid registers and
// buffer loads; it propagates through arithmetic and through assignment
// under divergent control (an instruction guarded by a variant branch or
// loop writes lane-dependent values). The analysis is binding-independent
// and runs once per Program.
func markUniform(p *Program, nodes []bnode) {
	iv := make([]bool, p.nIReg) // int register is lane-variant
	fv := make([]bool, p.nFReg) // float register is lane-variant
	changed := true
	taint := func(slot *bool, v bool) {
		if v && !*slot {
			*slot = true
			changed = true
		}
	}
	apply := func(in *inst, div bool) {
		switch in.op {
		case opIConst, opIParam:
			taint(&iv[in.dst], div)
		case opIMov, opIAddImm, opINeg, opIAbs:
			taint(&iv[in.dst], div || iv[in.a])
		case opIAdd, opISub, opIMul, opIDiv, opIMod, opIMin, opIMax,
			opICmp, opBAnd, opBOr:
			taint(&iv[in.dst], div || iv[in.a] || iv[in.b])
		case opSelI:
			taint(&iv[in.dst], div || iv[in.a] || iv[in.b] || iv[in.c])
		case opFCmp:
			taint(&iv[in.dst], div || fv[in.a] || fv[in.b])
		case opGID:
			taint(&iv[in.dst], true)
		case opFConst:
			taint(&fv[in.dst], div)
		case opFMov, opFNeg, opFAbs, opFSqrt, opFExp, opFLog:
			taint(&fv[in.dst], div || fv[in.a])
		case opFAdd, opFSub, opFMul, opFDiv, opFMin, opFMax:
			taint(&fv[in.dst], div || fv[in.a] || fv[in.b])
		case opFFMA:
			taint(&fv[in.dst], div || fv[in.a] || fv[in.b] || fv[in.c])
		case opItoF:
			taint(&fv[in.dst], div || iv[in.a])
		case opSelF:
			taint(&fv[in.dst], div || iv[in.a] || fv[in.b] || fv[in.c])
		case opLoad:
			// Conservative: loads read shared buffers that in-strip
			// stores may have written lane-dependently.
			taint(&fv[in.dst], true)
		}
	}
	var walk func(nds []bnode, div bool)
	walk = func(nds []bnode, div bool) {
		for i := range nds {
			nd := &nds[i]
			switch nd.kind {
			case bSeq:
				for pc := nd.lo; pc < nd.hi; pc++ {
					apply(&p.code[pc], div)
				}
			case bLoop:
				head := &p.code[nd.pc]
				apply(head, div)
				walk(nd.body, div || iv[head.a] || iv[head.b])
			case bIf:
				cdiv := div || iv[p.code[nd.pc].a]
				walk(nd.body, cdiv)
				walk(nd.els, cdiv)
			}
		}
	}
	for changed {
		changed = false
		walk(nodes, false)
	}

	var flag func(nds []bnode)
	flag = func(nds []bnode) {
		for i := range nds {
			nd := &nds[i]
			switch nd.kind {
			case bLoop:
				head := &p.code[nd.pc]
				if !iv[head.a] && !iv[head.b] {
					nd.uniform = true
					nd.headLive = intRegReadElsewhere(p.code, head.dst, nd.pc+1)
				}
				flag(nd.body)
			case bIf:
				flag(nd.body)
				flag(nd.els)
			}
		}
	}
	flag(nodes)
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
