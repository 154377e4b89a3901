package kir

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/fp16"
	"repro/internal/precision"
)

// This file implements the vectorized strip engine that Run uses. The
// NDRange is flattened and executed in fixed-size strips of work items;
// each virtual register becomes a column (one slot per lane), and every
// instruction runs as a tight loop over each contiguous run of the
// active lane list. An int register that Compile proved scalar lives in
// one more slot past the strip's last lane, and an instruction that
// writes it runs once per round there. A load whose index is a column
// plus a scalar, built by the iadd just before it, adds the two itself;
// when the column is a gid it loads each row segment of a run as one
// slice copy (gid0) or one broadcast element (gid1). Control flow uses
// lane masking: a loop keeps iterating the lanes whose head condition
// still holds, an if partitions lanes into then/else lists. Because
// every lane executes exactly the instruction sequence the reference
// tree walker (see Reference) would execute for that work item — same
// rounding primitives, same operation charging — buffers, counts, and
// errors are bit-for-bit identical between the engines, for kernels
// whose work items do not race (see Program.Run).

// DefaultStrip is the number of work items per batch strip when
// ExecEnv.Strip is zero. 256 lanes keep the whole register-file arena in
// L1/L2 for the kernel suite. Dispatch still shows at 256:
// BenchmarkBatchStrip's gemm reads 10.15 ms at 64 lanes, 6.89 ms at 256
// and 5.56 ms at 1024 in BENCH_interp.json. Changing the default moves
// every search, so it waits for a search-level measurement.
const DefaultStrip = 256

var (
	errDivZero = errors.New("integer division by zero")
	errModZero = errors.New("integer modulo by zero")
)

// laneFault records the first error a lane hit. The strip keeps running
// the surviving lanes; at strip end the fault with the smallest lane
// index is reported, which is exactly the error the item-at-a-time tree
// engine would have returned first.
type laneFault struct {
	lane int32
	err  error
}

// laneSpan is one contiguous run of active lanes, [lo, lo+n).
type laneSpan struct{ lo, n int }

// batchState is the reusable per-launch arena: register columns, gid
// columns, lane-list scratch for nested control flow, the run buffer, and
// per-lane death tracking. States are pooled on the batchProg so
// steady-state execution allocates nothing per work item.
type batchState struct {
	strip int
	// icols holds strip+1 slots per int register: one per lane, and the
	// scalar slot at index strip.
	icols      [][]int64
	fcols      [][]float64
	gidc       [2][]int64
	ident      []int32   // identity lane list 0..strip-1
	scratch    [][]int32 // lane-list stack for nested loops/ifs
	scratchTop int
	runs       []laneSpan // split's buffer, capacity strip

	dead        []bool
	anyDead     bool
	pendingDead bool // set by fault(), cleared after lane compaction
	faults      []laneFault
}

func newBatchState(bp *batchProg, strip int) *batchState {
	p := bp.p
	st := &batchState{strip: strip}
	w := strip + 1
	islab := make([]int64, (p.nIReg+2)*w)
	st.icols = make([][]int64, p.nIReg)
	for i := range st.icols {
		st.icols[i] = islab[i*w : (i+1)*w]
	}
	st.gidc[0] = islab[p.nIReg*w : (p.nIReg+1)*w]
	st.gidc[1] = islab[(p.nIReg+1)*w : (p.nIReg+2)*w]
	// A gid register is the gid column itself (see seq).
	for _, in := range p.code {
		if in.op == opGID {
			st.icols[in.dst] = st.gidc[in.imm]
		}
	}
	fslab := make([]float64, p.nFReg*strip)
	st.fcols = make([][]float64, p.nFReg)
	for i := range st.fcols {
		st.fcols[i] = fslab[i*strip : (i+1)*strip]
	}
	st.ident = make([]int32, strip)
	for i := range st.ident {
		st.ident[i] = int32(i)
	}
	st.runs = make([]laneSpan, 0, strip)
	st.dead = make([]bool, strip)
	return st
}

// initStrip fills the gid columns for the strip of n items starting at
// flattened index base. The flattening is x-major (y outer), matching
// the tree engine's item order.
func (st *batchState) initStrip(base, n, gx int) {
	x := int64(base % gx)
	y := int64(base / gx)
	g0, g1 := st.gidc[0], st.gidc[1]
	for l := 0; l < n; l++ {
		g0[l] = x
		g1[l] = y
		x++
		if x == int64(gx) {
			x = 0
			y++
		}
	}
}

// pushLanes hands out the next scratch lane list (full strip capacity),
// allocating a nesting level's list on its first use; the pooled arena
// keeps it.
func (st *batchState) pushLanes() []int32 {
	if st.scratchTop == len(st.scratch) {
		st.scratch = append(st.scratch, make([]int32, st.strip))
	}
	s := st.scratch[st.scratchTop]
	st.scratchTop++
	return s
}

func (st *batchState) popLanes() { st.scratchTop-- }

// split cuts an ascending lane list into its maximal runs of
// consecutive lanes, in ascending order. Lanes are distinct, so
// lanes[j]-lanes[0] >= j, with equality exactly while lanes[0..j] is one
// run: a one-run list costs one compare, and each further run a binary
// search. The runs live in the arena's one buffer until the next split:
// seq and a divergent loop head step every run of one instruction
// before anything else splits, so nothing nests.
func (st *batchState) split(lanes []int32) []laneSpan {
	runs := st.runs[:0]
	for len(lanes) > 0 {
		lo, n := lanes[0], len(lanes)
		if int(lanes[n-1]-lo) != n-1 {
			i, j := 1, n-1 // lanes[0] is in the run, lanes[n-1] is not
			for i < j {
				if h := int(uint(i+j) >> 1); int(lanes[h]-lo) == h {
					i = h + 1
				} else {
					j = h
				}
			}
			n = i
		}
		runs = append(runs, laneSpan{int(lo), n})
		lanes = lanes[n:]
	}
	return runs
}

// minFault returns the recorded fault with the smallest lane index: the
// error the tree engine would have hit first.
func (st *batchState) minFault() laneFault {
	best := st.faults[0]
	for _, f := range st.faults[1:] {
		if f.lane < best.lane {
			best = f
		}
	}
	return best
}

// getState returns a pooled arena for the given strip size, or a fresh
// one. Pooled states are always clean: faulted states are never
// returned to the pool.
func (bp *batchProg) getState(strip int) *batchState {
	if v := bp.pool.Get(); v != nil {
		if st := v.(*batchState); st.strip == strip {
			return st
		}
	}
	return newBatchState(bp, strip)
}

// batchRun carries one launch's context and dynamic counters.
type batchRun struct {
	bp        *batchProg
	st        *batchState
	env       *ExecEnv
	computeAs []precision.Type
	converts  []bool
	sizes     []float64

	flops                          [4]float64
	intOps, convOps, loadB, storeB float64
}

// run executes the full NDRange in strips. computeAs/converts/sizes are
// the per-buffer resolutions Program.Run already computed (shared with
// the tree path).
func (bp *batchProg) run(env *ExecEnv, computeAs []precision.Type, converts []bool, sizes []float64, gx, gy int) (Counts, error) {
	strip := env.Strip
	if strip <= 0 {
		strip = DefaultStrip
	}
	st := bp.getState(strip)
	// A scalar argument register holds the same value in every lane and
	// in the scalar slot for the whole launch (see seq): fill it once
	// here.
	for _, in := range bp.p.code {
		if in.op == opIParam {
			col, v := st.icols[in.dst], env.IntArgs[in.imm]
			for i := range col {
				col[i] = v
			}
		}
	}
	r := &batchRun{bp: bp, st: st, env: env, computeAs: computeAs, converts: converts, sizes: sizes}
	total := gx * gy
	for base := 0; base < total; base += strip {
		n := strip
		if total-base < n {
			n = total - base
		}
		st.initStrip(base, n, gx)
		r.exec(bp.p.nodes, st.ident[:n])
		if st.anyDead {
			// The state's lane lists and dead flags are tainted; drop it
			// instead of pooling.
			f := st.minFault()
			g := base + int(f.lane)
			return Counts{}, fmt.Errorf("kernel %s at gid (%d,%d): %w", bp.p.Kernel.Name, g%gx, g/gx, f.err)
		}
	}
	bp.pool.Put(st)
	return gatherCounts(&r.flops, r.intOps, r.convOps, r.loadB, r.storeB, total), nil
}

// exec runs a node list over the active lanes and returns the surviving
// (compacted) lane list. Lane lists are always ascending: every filter
// keeps lane order.
func (r *batchRun) exec(nodes []bnode, lanes []int32) []int32 {
	for i := range nodes {
		if len(lanes) == 0 {
			break
		}
		nd := &nodes[i]
		switch nd.kind {
		case bSeq:
			lanes = r.seq(nd, lanes)
		case bLoop:
			r.loop(nd, lanes)
		case bIf:
			r.branch(nd, lanes)
		}
		if nd.kind != bSeq && r.st.anyDead {
			lanes = r.alive(lanes)
		}
	}
	return lanes
}

// seq executes a straight-line instruction span over the runs of the
// lane list, stepping every run of one instruction before the next
// instruction starts, so lanes see memory, faults and charges in
// ascending lane order. An instruction that writes a scalar register
// runs once for the whole lane list instead; it cannot fault. seq
// compacts the lane list and splits it again whenever an instruction
// faulted some lanes. IParam and GID are skipped: the lowerer gives
// each a fresh temp that no other instruction writes (variables are
// written through IMov, and LVN only rewrites an instruction in place
// to IMov or Nop), so run fills an IParam column once per launch and
// newBatchState aliases a GID register to its gid column.
func (r *batchRun) seq(nd *bnode, lanes []int32) []int32 {
	code, shapes := r.bp.p.code, r.bp.p.shapes
	runs := r.st.split(lanes)
	for pc := nd.lo; pc < nd.hi; pc++ {
		in := &code[pc]
		if in.op == opIParam || in.op == opGID {
			continue
		}
		if shapes[pc] == shOnce {
			r.once(in, pc, len(lanes))
			continue
		}
		for _, s := range runs {
			r.step(in, pc, s.lo, s.n)
		}
		if r.st.pendingDead {
			r.st.pendingDead = false
			lanes = r.alive(lanes)
			if len(lanes) == 0 {
				break
			}
			runs = r.st.split(lanes)
		}
	}
	return lanes
}

// once runs an instruction that writes a scalar register a single time,
// on the scalar slots, for all n active lanes: the charge of that one
// step is scaled to n lanes.
func (r *batchRun) once(in *inst, pc, n int) {
	ops := r.intOps
	r.step(in, pc, r.st.strip, 1)
	r.intOps += (r.intOps - ops) * float64(n-1)
}

// loop runs a counted loop. Uniform loops (head compare proven uniform
// among the active lanes by markUniform) evaluate the condition once
// per round, reading each operand from its scalar slot or from the
// first active lane: the whole lane list stays or exits together, with
// no per-round filter. Divergent loops re-evaluate the head over the
// remaining lanes and keep the lanes whose condition holds, so
// gid-dependent trip counts retire lanes individually.
func (r *batchRun) loop(nd *bnode, lanes []int32) {
	st := r.st
	head := &r.bp.p.code[nd.pc]
	s := st.pushLanes()
	cur := s[:copy(s, lanes)]
	if nd.uniform {
		a, b := st.icols[head.a], st.icols[head.b]
		dst := st.icols[head.dst]
		sh := r.bp.p.shapes[nd.pc]
		for len(cur) > 0 {
			// Every live lane is charged for the head compare, exactly as
			// each surviving item is in the tree engine — including the
			// final, failing evaluation.
			r.intOps += float64(len(cur))
			la, lb := int(cur[0]), int(cur[0])
			if sh&shA != 0 {
				la = st.strip
			}
			if sh&shB != 0 {
				lb = st.strip
			}
			taken := cmpInt(head.cmp, a[la], b[lb])
			if nd.headLive {
				v := boolToInt(taken)
				for _, l := range cur {
					dst[l] = v
				}
			}
			if !taken {
				break
			}
			cur = r.exec(nd.body, cur)
		}
		st.popLanes()
		return
	}
	cond := st.icols[head.dst]
	for len(cur) > 0 {
		for _, s := range st.split(cur) {
			r.step(head, nd.pc, s.lo, s.n) // head ICmp: charges intOps, never faults
		}
		m := 0
		for _, l := range cur {
			if cond[l] != 0 {
				cur[m] = l
				m++
			}
		}
		cur = cur[:m]
		if m == 0 {
			break
		}
		cur = r.exec(nd.body, cur)
	}
	st.popLanes()
}

// branch partitions lanes by the if condition and runs each side over
// its partition.
func (r *batchRun) branch(nd *bnode, lanes []int32) {
	st := r.st
	cond := st.icols[r.bp.p.code[nd.pc].a]
	tl := st.pushLanes()[:0]
	el := st.pushLanes()[:0]
	for _, l := range lanes {
		if cond[l] != 0 {
			tl = append(tl, l)
		} else {
			el = append(el, l)
		}
	}
	if len(tl) > 0 {
		r.exec(nd.body, tl)
	}
	if len(el) > 0 && nd.els != nil {
		r.exec(nd.els, el)
	}
	st.popLanes()
	st.popLanes()
}

// alive filters dead lanes out of the list in place.
func (r *batchRun) alive(lanes []int32) []int32 {
	dead := r.st.dead
	m := 0
	for _, l := range lanes {
		if !dead[l] {
			lanes[m] = l
			m++
		}
	}
	return lanes[:m]
}

// fault marks a lane dead, recording its first error.
func (r *batchRun) fault(l int32, err error) {
	st := r.st
	if st.dead[l] {
		return
	}
	st.dead[l] = true
	st.anyDead = true
	st.pendingDead = true
	st.faults = append(st.faults, laneFault{l, err})
}

func (r *batchRun) oob(what string, buf, idx int64) error {
	return fmt.Errorf("%s %s[%d] out of bounds (len %d)", what, r.bp.p.Kernel.Bufs[buf].Name, idx, r.env.Bufs[buf].Len())
}

// roundRun rounds a column pre-cut to a run to precision p, using the
// same primitives as round() so results stay bit-identical. Double and
// untyped are the identity and skip the pass entirely.
func roundRun(col []float64, p precision.Type) {
	switch p {
	case precision.Half:
		for i, v := range col {
			col[i] = fp16.Round(v)
		}
	case precision.Single:
		for i, v := range col {
			col[i] = float64(float32(v))
		}
	}
}

// addRun sets dst to a + v over a run, a pre-cut to it.
func addRun(dst, a []int64, v int64) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] = a[i] + v
	}
}

// mulRun sets dst to a * v over a run, a pre-cut to it.
func mulRun(dst, a []int64, v int64) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] = a[i] * v
	}
}

// cmpIntRun evaluates an integer compare over a run, every column
// pre-cut to it, with the comparison dispatch hoisted out of the lane
// loop.
func cmpIntRun(dst, a, b []int64, op CmpOp) {
	a, b = a[:len(dst)], b[:len(dst)]
	switch op {
	case CmpLT:
		for i := range dst {
			dst[i] = boolToInt(a[i] < b[i])
		}
	case CmpLE:
		for i := range dst {
			dst[i] = boolToInt(a[i] <= b[i])
		}
	case CmpGT:
		for i := range dst {
			dst[i] = boolToInt(a[i] > b[i])
		}
	case CmpGE:
		for i := range dst {
			dst[i] = boolToInt(a[i] >= b[i])
		}
	case CmpEQ:
		for i := range dst {
			dst[i] = boolToInt(a[i] == b[i])
		}
	default:
		for i := range dst {
			dst[i] = boolToInt(a[i] != b[i])
		}
	}
}

// cmpFloatRun is cmpIntRun for the float register file.
func cmpFloatRun(dst []int64, a, b []float64, op CmpOp) {
	a, b = a[:len(dst)], b[:len(dst)]
	switch op {
	case CmpLT:
		for i := range dst {
			dst[i] = boolToInt(a[i] < b[i])
		}
	case CmpLE:
		for i := range dst {
			dst[i] = boolToInt(a[i] <= b[i])
		}
	case CmpGT:
		for i := range dst {
			dst[i] = boolToInt(a[i] > b[i])
		}
	case CmpGE:
		for i := range dst {
			dst[i] = boolToInt(a[i] >= b[i])
		}
	case CmpEQ:
		for i := range dst {
			dst[i] = boolToInt(a[i] == b[i])
		}
	default:
		for i := range dst {
			dst[i] = boolToInt(a[i] != b[i])
		}
	}
}

// step executes one instruction over the run of lanes [lo, lo+n) with
// contiguous column slices: the compiler eliminates the bounds checks
// (all slices are pre-cut to the run). pc indexes the specialization's
// static precision tape and the program's instruction shapes: an iadd,
// isub or imul may read one operand, and a load its index, from the
// scalar slot, and a fused iadd only charges while the load after it
// adds (see loadFused). The run may be the scalar slots themselves (see
// once).
// Operation charging matches runItem exactly: the same opcodes count,
// with the same weights, once per executed lane. (Lanes that fault
// mid-instruction may be charged for it; that is unobservable because a
// fault always discards the launch's counts.)
func (r *batchRun) step(in *inst, pc int, lo, n int) {
	st := r.st
	hi := lo + n
	nf := float64(n)
	switch in.op {
	case opIConst:
		dst, v := st.icols[in.dst][lo:hi], in.imm
		for i := range dst {
			dst[i] = v
		}
	case opIMov:
		dst, a := st.icols[in.dst][lo:hi], st.icols[in.a][lo:hi]
		copy(dst, a)
	case opIAdd:
		sh := r.bp.p.shapes[pc]
		if sh&shFuse != 0 {
			// The load after it adds (see loadFused).
			r.intOps += nf
			break
		}
		dst := st.icols[in.dst][lo:hi]
		switch sh {
		case shA:
			addRun(dst, st.icols[in.b][lo:hi], st.icols[in.a][st.strip])
		case shB:
			addRun(dst, st.icols[in.a][lo:hi], st.icols[in.b][st.strip])
		default:
			a, b := st.icols[in.a][lo:hi], st.icols[in.b][lo:hi]
			for i := range dst {
				dst[i] = a[i] + b[i]
			}
		}
		r.intOps += nf
	case opIAddImm:
		addRun(st.icols[in.dst][lo:hi], st.icols[in.a][lo:hi], in.imm)
		r.intOps += nf
	case opISub:
		dst := st.icols[in.dst][lo:hi]
		switch r.bp.p.shapes[pc] {
		case shA:
			v, b := st.icols[in.a][st.strip], st.icols[in.b][lo:hi]
			for i := range dst {
				dst[i] = v - b[i]
			}
		case shB:
			addRun(dst, st.icols[in.a][lo:hi], -st.icols[in.b][st.strip])
		default:
			a, b := st.icols[in.a][lo:hi], st.icols[in.b][lo:hi]
			for i := range dst {
				dst[i] = a[i] - b[i]
			}
		}
		r.intOps += nf
	case opIMul:
		dst := st.icols[in.dst][lo:hi]
		switch r.bp.p.shapes[pc] {
		case shA:
			mulRun(dst, st.icols[in.b][lo:hi], st.icols[in.a][st.strip])
		case shB:
			mulRun(dst, st.icols[in.a][lo:hi], st.icols[in.b][st.strip])
		default:
			a, b := st.icols[in.a][lo:hi], st.icols[in.b][lo:hi]
			for i := range dst {
				dst[i] = a[i] * b[i]
			}
		}
		r.intOps += nf
	case opIMin:
		dst, a, b := st.icols[in.dst][lo:hi], st.icols[in.a][lo:hi], st.icols[in.b][lo:hi]
		for i := range dst {
			v, w := a[i], b[i]
			if w < v {
				v = w
			}
			dst[i] = v
		}
		r.intOps += nf
	case opIMax:
		dst, a, b := st.icols[in.dst][lo:hi], st.icols[in.a][lo:hi], st.icols[in.b][lo:hi]
		for i := range dst {
			v, w := a[i], b[i]
			if w > v {
				v = w
			}
			dst[i] = v
		}
		r.intOps += nf
	case opINeg:
		dst, a := st.icols[in.dst][lo:hi], st.icols[in.a][lo:hi]
		for i := range dst {
			dst[i] = -a[i]
		}
		r.intOps += nf
	case opIAbs:
		dst, a := st.icols[in.dst][lo:hi], st.icols[in.a][lo:hi]
		for i := range dst {
			v := a[i]
			if v < 0 {
				v = -v
			}
			dst[i] = v
		}
		r.intOps += nf

	case opFConst:
		dst, v := st.fcols[in.dst][lo:hi], in.fimm
		for i := range dst {
			dst[i] = v
		}
	case opFMov:
		copy(st.fcols[in.dst][lo:hi], st.fcols[in.a][lo:hi])
	case opFAdd:
		dst, a, b := st.fcols[in.dst][lo:hi], st.fcols[in.a][lo:hi], st.fcols[in.b][lo:hi]
		for i := range dst {
			dst[i] = a[i] + b[i]
		}
		p := r.bp.prec[pc]
		roundRun(dst, p)
		r.flops[p] += nf
	case opFSub:
		dst, a, b := st.fcols[in.dst][lo:hi], st.fcols[in.a][lo:hi], st.fcols[in.b][lo:hi]
		for i := range dst {
			dst[i] = a[i] - b[i]
		}
		p := r.bp.prec[pc]
		roundRun(dst, p)
		r.flops[p] += nf
	case opFMul:
		dst, a, b := st.fcols[in.dst][lo:hi], st.fcols[in.a][lo:hi], st.fcols[in.b][lo:hi]
		for i := range dst {
			dst[i] = a[i] * b[i]
		}
		p := r.bp.prec[pc]
		roundRun(dst, p)
		r.flops[p] += nf
	case opFDiv:
		dst, a, b := st.fcols[in.dst][lo:hi], st.fcols[in.a][lo:hi], st.fcols[in.b][lo:hi]
		for i := range dst {
			dst[i] = a[i] / b[i]
		}
		p := r.bp.prec[pc]
		roundRun(dst, p)
		r.flops[p] += weightDiv * nf
	case opFFMA:
		dst, a, b, c := st.fcols[in.dst][lo:hi], st.fcols[in.a][lo:hi], st.fcols[in.b][lo:hi], st.fcols[in.c][lo:hi]
		for i := range dst {
			dst[i] = math.FMA(a[i], b[i], c[i])
		}
		p := r.bp.prec[pc]
		roundRun(dst, p)
		r.flops[p] += nf
	case opItoF:
		dst, a := st.fcols[in.dst][lo:hi], st.icols[in.a][lo:hi]
		for i := range dst {
			dst[i] = float64(a[i])
		}

	case opLoad:
		data := r.env.Bufs[in.imm].Values()
		dst := st.fcols[in.dst][lo:hi]
		switch sh := r.bp.p.shapes[pc]; {
		case sh == shA:
			r.bcast(in, dst, st.icols[in.a][st.strip], lo, data)
		case sh&shFuse != 0:
			r.loadFused(in, pc, dst, lo, data)
		default:
			r.gather(in, dst, st.icols[in.a][lo:hi], 0, lo, data)
		}
		if r.converts[in.imm] {
			r.convOps += nf
		}
		r.loadB += r.sizes[in.imm] * nf
	case opStore:
		buf := r.env.Bufs[in.imm]
		data := buf.Data()
		bound := int64(len(data))
		idx, val := st.icols[in.a][lo:hi], st.fcols[in.b][lo:hi]
		switch buf.Elem() {
		case precision.Half:
			for i, ix := range idx {
				if uint64(ix) >= uint64(bound) {
					r.fault(int32(lo+i), r.oob("store", in.imm, ix))
					continue
				}
				data[ix] = fp16.Round(val[i])
			}
		case precision.Single:
			for i, ix := range idx {
				if uint64(ix) >= uint64(bound) {
					r.fault(int32(lo+i), r.oob("store", in.imm, ix))
					continue
				}
				data[ix] = float64(float32(val[i]))
			}
		default:
			for i, ix := range idx {
				if uint64(ix) >= uint64(bound) {
					r.fault(int32(lo+i), r.oob("store", in.imm, ix))
					continue
				}
				data[ix] = val[i]
			}
		}
		if r.converts[in.imm] {
			r.convOps += nf
		}
		r.storeB += r.sizes[in.imm] * nf

	case opICmp:
		cmpIntRun(st.icols[in.dst][lo:hi], st.icols[in.a][lo:hi], st.icols[in.b][lo:hi], in.cmp)
		r.intOps += nf
	case opFCmp:
		cmpFloatRun(st.icols[in.dst][lo:hi], st.fcols[in.a][lo:hi], st.fcols[in.b][lo:hi], in.cmp)
		r.intOps += nf
	case opSelI:
		dst, c, a, b := st.icols[in.dst][lo:hi], st.icols[in.a][lo:hi], st.icols[in.b][lo:hi], st.icols[in.c][lo:hi]
		for i := range dst {
			if c[i] != 0 {
				dst[i] = a[i]
			} else {
				dst[i] = b[i]
			}
		}
		r.intOps += nf
	case opSelF:
		dst, c, a, b := st.fcols[in.dst][lo:hi], st.icols[in.a][lo:hi], st.fcols[in.b][lo:hi], st.fcols[in.c][lo:hi]
		for i := range dst {
			if c[i] != 0 {
				dst[i] = a[i]
			} else {
				dst[i] = b[i]
			}
		}
		r.intOps += nf

	default:
		r.stepCold(in, pc, lo, n)
	}
}

// gather loads data[idx[i]+s] into dst, the run of lanes from lo with
// idx cut to it, and rounds the run; a lane whose index is out of
// bounds faults.
func (r *batchRun) gather(in *inst, dst []float64, idx []int64, s int64, lo int, data []float64) {
	idx = idx[:len(dst)]
	for i := range dst {
		ix := idx[i] + s
		if uint64(ix) >= uint64(len(data)) {
			r.fault(int32(lo+i), r.oob("load", in.imm, ix))
			continue
		}
		dst[i] = data[ix]
	}
	r.roundLoad(in, dst)
}

// bcast reads and rounds data[ix] once and fills dst, the run of lanes
// from lo, with it; out of bounds, it faults every lane of the run, as
// each would have faulted on the same index.
func (r *batchRun) bcast(in *inst, dst []float64, ix int64, lo int, data []float64) {
	if uint64(ix) >= uint64(len(data)) {
		err := r.oob("load", in.imm, ix)
		for i := range dst {
			r.fault(int32(lo+i), err)
		}
		return
	}
	dst[0] = data[ix]
	r.roundLoad(in, dst[:1])
	for i := 1; i < len(dst); i++ {
		dst[i] = dst[0]
	}
}

// roundLoad rounds loaded values to the buffer's compute precision when
// the launch converts the buffer.
func (r *batchRun) roundLoad(in *inst, dst []float64) {
	if r.converts[in.imm] {
		roundRun(dst, r.computeAs[in.imm])
	}
}

// loadFused runs a fused load over the run of lanes from lo: its index
// is col[l] + s, the column and the scalar operand of the iadd at pc-1.
// A gather reads each lane's element. A row load splits the run where
// gid0 wraps at Global[0] (a row shorter than the strip puts several
// rows in one run); within one segment gid0 counts up by one and gid1
// is constant, so a gid0 segment in bounds is one slice copy and a gid1
// segment one broadcast element. A gid0 segment with any lane out of
// bounds gathers lane by lane, so exactly its out-of-bounds lanes fault
// and the lowest faulting lane is still the one reported.
func (r *batchRun) loadFused(in *inst, pc int, dst []float64, lo int, data []float64) {
	st, p := r.st, r.bp.p
	add, sh := &p.code[pc-1], p.shapes[pc]
	c, s := add.a, add.b
	if p.shapes[pc-1]&shA != 0 {
		c, s = s, c
	}
	col, v := st.icols[c], st.icols[s][st.strip]
	if sh&(shRowCopy|shRowBcast) == 0 {
		r.gather(in, dst, col[lo:], v, lo, data)
		return
	}
	g0, gx := st.gidc[0], int64(r.env.Global[0])
	for i := 0; i < len(dst); {
		l := lo + i
		e := len(dst)
		if w := gx - g0[l]; w < int64(e-i) {
			e = i + int(w)
		}
		seg, ix := dst[i:e], col[l]+v
		switch {
		case sh&shRowBcast != 0:
			r.bcast(in, seg, ix, l, data)
		case ix >= 0 && ix <= int64(len(data)-len(seg)):
			copy(seg, data[ix:])
			r.roundLoad(in, seg)
		default:
			r.gather(in, seg, col[l:], v, l, data)
		}
		i = e
	}
}

// stepCold is step for the opcodes the suite's hot loops do not run:
// nop, integer division and modulo (which fault on a zero divisor),
// float min, max, negation, absolute value, square root and the
// transcendentals, the booleans, and the unknown-opcode fault. Keeping
// them out of line keeps step's switch to the hot opcodes.
func (r *batchRun) stepCold(in *inst, pc int, lo, n int) {
	st := r.st
	hi := lo + n
	nf := float64(n)
	switch in.op {
	case opNop:

	case opIDiv:
		dst, a, b := st.icols[in.dst][lo:hi], st.icols[in.a][lo:hi], st.icols[in.b][lo:hi]
		for i, d := range b {
			if d == 0 {
				r.fault(int32(lo+i), errDivZero)
				continue
			}
			dst[i] = a[i] / d
		}
		r.intOps += nf
	case opIMod:
		dst, a, b := st.icols[in.dst][lo:hi], st.icols[in.a][lo:hi], st.icols[in.b][lo:hi]
		for i, d := range b {
			if d == 0 {
				r.fault(int32(lo+i), errModZero)
				continue
			}
			dst[i] = a[i] % d
		}
		r.intOps += nf

	case opFMin:
		dst, a, b := st.fcols[in.dst][lo:hi], st.fcols[in.a][lo:hi], st.fcols[in.b][lo:hi]
		for i := range dst {
			dst[i] = math.Min(a[i], b[i])
		}
		p := r.bp.prec[pc]
		roundRun(dst, p)
		r.flops[p] += nf
	case opFMax:
		dst, a, b := st.fcols[in.dst][lo:hi], st.fcols[in.a][lo:hi], st.fcols[in.b][lo:hi]
		for i := range dst {
			dst[i] = math.Max(a[i], b[i])
		}
		p := r.bp.prec[pc]
		roundRun(dst, p)
		r.flops[p] += nf
	case opFNeg:
		dst, a := st.fcols[in.dst][lo:hi], st.fcols[in.a][lo:hi]
		for i := range dst {
			dst[i] = -a[i]
		}
		r.flops[r.bp.prec[pc]] += nf
	case opFAbs:
		dst, a := st.fcols[in.dst][lo:hi], st.fcols[in.a][lo:hi]
		for i := range dst {
			dst[i] = math.Abs(a[i])
		}
		r.flops[r.bp.prec[pc]] += nf
	case opFSqrt:
		dst, a := st.fcols[in.dst][lo:hi], st.fcols[in.a][lo:hi]
		for i := range dst {
			dst[i] = math.Sqrt(a[i])
		}
		p := r.bp.prec[pc]
		roundRun(dst, p)
		r.flops[p] += weightSqrt * nf
	case opFExp:
		dst, a := st.fcols[in.dst][lo:hi], st.fcols[in.a][lo:hi]
		for i := range dst {
			dst[i] = math.Exp(a[i])
		}
		p := r.bp.prec[pc]
		roundRun(dst, p)
		r.flops[p] += weightTrans * nf
	case opFLog:
		dst, a := st.fcols[in.dst][lo:hi], st.fcols[in.a][lo:hi]
		for i := range dst {
			dst[i] = math.Log(a[i])
		}
		p := r.bp.prec[pc]
		roundRun(dst, p)
		r.flops[p] += weightTrans * nf

	case opBAnd:
		dst, a, b := st.icols[in.dst][lo:hi], st.icols[in.a][lo:hi], st.icols[in.b][lo:hi]
		for i := range dst {
			dst[i] = boolToInt(a[i] != 0 && b[i] != 0)
		}
		r.intOps += nf
	case opBOr:
		dst, a, b := st.icols[in.dst][lo:hi], st.icols[in.a][lo:hi], st.icols[in.b][lo:hi]
		for i := range dst {
			dst[i] = boolToInt(a[i] != 0 || b[i] != 0)
		}
		r.intOps += nf

	default:
		// Unreachable for lowerer-produced programs (jumps never appear
		// inside bSeq spans); mirror the tree engine's error if it ever
		// happens.
		for l := lo; l < hi; l++ {
			r.fault(int32(l), fmt.Errorf("unknown opcode %d", in.op))
		}
	}
}
