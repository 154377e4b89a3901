package kir

import (
	"fmt"
	"math"

	"repro/internal/precision"
)

// ExecEnv supplies everything a Program needs to run over an NDRange.
type ExecEnv struct {
	// Bufs holds the backing array for each buffer parameter, in kernel
	// argument order. Element precisions are the storage precisions.
	Bufs []*precision.Array
	// ComputeAs optionally overrides the precision at which each buffer's
	// values participate in arithmetic (the In-Kernel scaling mode: the
	// buffer stays at its storage precision, loads are converted down and
	// stores converted back, each costing a conversion instruction). When
	// nil or entry == storage precision, no conversion occurs.
	ComputeAs []precision.Type
	// IntArgs holds scalar integer arguments in IntParams order.
	IntArgs []int64
	// Global is the NDRange size; Global[1] must be 1 for 1D kernels.
	Global [2]int
	// Strip overrides the batch engine's strip size (work items executed
	// per vectorized batch); 0 means DefaultStrip. A Reference twin
	// ignores it. Results are identical at any strip size.
	Strip int
}

// Counts aggregates the dynamic cost-relevant events of one kernel
// execution over a full NDRange.
type Counts struct {
	// Flops holds weighted floating-point operation counts per precision.
	// Division, square root and transcendentals count more than one unit,
	// reflecting their lower hardware throughput.
	Flops map[precision.Type]float64
	// IntOps counts integer/index operations (including comparisons and
	// loop overhead).
	IntOps float64
	// ConvOps counts type-conversion instructions executed inside the
	// kernel (nonzero only under In-Kernel scaling).
	ConvOps float64
	// LoadBytes and StoreBytes count global-memory traffic at storage
	// precision widths.
	LoadBytes  float64
	StoreBytes float64
	// WorkItems is the number of work items executed.
	WorkItems int
}

// Add accumulates other into c.
func (c *Counts) Add(other Counts) {
	if c.Flops == nil {
		c.Flops = map[precision.Type]float64{}
	}
	for t, n := range other.Flops {
		c.Flops[t] += n
	}
	c.IntOps += other.IntOps
	c.ConvOps += other.ConvOps
	c.LoadBytes += other.LoadBytes
	c.StoreBytes += other.StoreBytes
	c.WorkItems += other.WorkItems
}

// TotalFlops returns the sum of weighted float ops across precisions.
func (c *Counts) TotalFlops() float64 {
	var s float64
	for _, n := range c.Flops {
		s += n
	}
	return s
}

// Operation weights, in equivalent simple-op units. GPUs retire div/sqrt
// through the special-function pipeline at a fraction of the mul/add rate.
const (
	weightDiv   = 5
	weightSqrt  = 8
	weightTrans = 16 // exp, log
)

// interpState is the reusable per-run mutable state.
type interpState struct {
	ireg  []int64
	freg  []float64
	fprec []precision.Type
	// flops indexed by precision.Type (0..3); 0 (Invalid) accumulates
	// untyped-literal-only arithmetic, charged as Double at the end.
	flops   [4]float64
	intOps  float64
	convOps float64
	loadB   float64
	storeB  float64
}

// Run executes the program over the NDRange described by env and returns
// the dynamic counts. Functional effects (stores) land in env.Bufs with
// storage-precision rounding. A launch runs on the batch engine when its
// key has a static precision tape, and on the reference walker
// otherwise. The results are identical either way when the kernel is
// race-free: no work item reads or writes an element that another work
// item writes in the same launch. The batch engine runs each
// instruction over every lane before the next instruction, while the
// walker runs one whole item after another, so a racing kernel may see
// a different last write. Nothing checks the condition; the suite's
// kernels are written to meet it. Errors report out-of-bounds accesses,
// argument mismatches and integer division by zero.
func (p *Program) Run(env *ExecEnv) (Counts, error) {
	k := p.Kernel
	if len(env.Bufs) != len(k.Bufs) {
		return Counts{}, fmt.Errorf("kernel %s: got %d buffers, want %d", k.Name, len(env.Bufs), len(k.Bufs))
	}
	if len(env.IntArgs) != len(k.IntParams) {
		return Counts{}, fmt.Errorf("kernel %s: got %d int args, want %d", k.Name, len(env.IntArgs), len(k.IntParams))
	}
	if env.ComputeAs != nil && len(env.ComputeAs) != len(k.Bufs) {
		return Counts{}, fmt.Errorf("kernel %s: ComputeAs has %d entries, want %d", k.Name, len(env.ComputeAs), len(k.Bufs))
	}
	gx, gy := env.Global[0], env.Global[1]
	if gy == 0 {
		gy = 1
	}
	if gx <= 0 || gy < 1 {
		return Counts{}, fmt.Errorf("kernel %s: invalid NDRange %dx%d", k.Name, gx, gy)
	}
	if k.Dims == 1 && gy != 1 {
		return Counts{}, fmt.Errorf("kernel %s: 1D kernel launched with %dx%d range", k.Name, gx, gy)
	}

	// Resolve per-buffer compute precision and conversion flags once.
	nb := len(k.Bufs)
	computeAs := make([]precision.Type, nb)
	converts := make([]bool, nb)
	sizes := make([]float64, nb)
	for i := range k.Bufs {
		st := env.Bufs[i].Elem()
		ca := st
		if env.ComputeAs != nil && env.ComputeAs[i].Valid() {
			ca = env.ComputeAs[i]
		}
		computeAs[i] = ca
		converts[i] = ca != st
		sizes[i] = float64(st.Size())
	}

	if p.reference {
		return p.runTree(env, computeAs, converts, sizes, gx, gy)
	}
	// A key is static or runs on the walker: a dyn key (lane-divergent
	// precision dataflow, or a launch-constant loop that runs zero times
	// ahead of an untyped accumulator) has no static precision tape, and
	// the walker defines its semantics. No suite launch has one
	// (TestSuiteStaticTapes).
	bp := p.batchFor(computeAs, p.nonEmpty(env.IntArgs))
	if bp.dyn {
		return p.runTree(env, computeAs, converts, sizes, gx, gy)
	}
	return bp.run(env, computeAs, converts, sizes, gx, gy)
}

// Reference returns a twin of p whose Run walks the bytecode one work
// item at a time, tracking precision per register: the reference
// semantics the batch engine must match bit for bit, for differential
// tests. The twin shares p's bytecode and write set read-only.
func (p *Program) Reference() *Program {
	return &Program{Kernel: p.Kernel, code: p.code, nIReg: p.nIReg, nFReg: p.nFReg, writes: p.writes, reference: true}
}

// runTree is the reference walker behind Reference: every work item in
// row-major gid order, stopping at the first fault.
func (p *Program) runTree(env *ExecEnv, computeAs []precision.Type, converts []bool, sizes []float64, gx, gy int) (Counts, error) {
	st := &interpState{
		ireg:  make([]int64, p.nIReg),
		freg:  make([]float64, p.nFReg),
		fprec: make([]precision.Type, p.nFReg),
	}

	var gid [2]int64
	for y := 0; y < gy; y++ {
		gid[1] = int64(y)
		for x := 0; x < gx; x++ {
			gid[0] = int64(x)
			if err := p.runItem(st, env, gid, computeAs, converts, sizes); err != nil {
				return Counts{}, fmt.Errorf("kernel %s at gid (%d,%d): %w", p.Kernel.Name, x, y, err)
			}
		}
	}

	return gatherCounts(&st.flops, st.intOps, st.convOps, st.loadB, st.storeB, gx*gy), nil
}

// gatherCounts assembles the Counts result from raw accumulators. Both
// engines share it so the map shape (which keys appear, how untyped
// flops fold into Double) cannot drift between them.
func gatherCounts(flops *[4]float64, intOps, convOps, loadB, storeB float64, items int) Counts {
	counts := Counts{
		Flops:      map[precision.Type]float64{},
		IntOps:     intOps,
		ConvOps:    convOps,
		LoadBytes:  loadB,
		StoreBytes: storeB,
		WorkItems:  items,
	}
	for t := precision.Half; t <= precision.Double; t++ {
		if n := flops[t]; n > 0 {
			counts.Flops[t] = n
		}
	}
	if n := flops[precision.Invalid]; n > 0 {
		counts.Flops[precision.Double] += n
	}
	return counts
}

// runItem executes the bytecode for one work item.
func (p *Program) runItem(st *interpState, env *ExecEnv, gid [2]int64, computeAs []precision.Type, converts []bool, sizes []float64) error {
	code := p.code
	ireg := st.ireg
	freg := st.freg
	fprec := st.fprec

	for pc := 0; pc < len(code); pc++ {
		in := &code[pc]
		switch in.op {
		case opNop:
		case opIConst:
			ireg[in.dst] = in.imm
		case opIMov:
			ireg[in.dst] = ireg[in.a]
		case opIAdd:
			ireg[in.dst] = ireg[in.a] + ireg[in.b]
			st.intOps++
		case opIAddImm:
			ireg[in.dst] = ireg[in.a] + in.imm
			st.intOps++
		case opISub:
			ireg[in.dst] = ireg[in.a] - ireg[in.b]
			st.intOps++
		case opIMul:
			ireg[in.dst] = ireg[in.a] * ireg[in.b]
			st.intOps++
		case opIDiv:
			if ireg[in.b] == 0 {
				return fmt.Errorf("integer division by zero")
			}
			ireg[in.dst] = ireg[in.a] / ireg[in.b]
			st.intOps++
		case opIMod:
			if ireg[in.b] == 0 {
				return fmt.Errorf("integer modulo by zero")
			}
			ireg[in.dst] = ireg[in.a] % ireg[in.b]
			st.intOps++
		case opIMin:
			a, b := ireg[in.a], ireg[in.b]
			if b < a {
				a = b
			}
			ireg[in.dst] = a
			st.intOps++
		case opIMax:
			a, b := ireg[in.a], ireg[in.b]
			if b > a {
				a = b
			}
			ireg[in.dst] = a
			st.intOps++
		case opINeg:
			ireg[in.dst] = -ireg[in.a]
			st.intOps++
		case opIAbs:
			v := ireg[in.a]
			if v < 0 {
				v = -v
			}
			ireg[in.dst] = v
			st.intOps++
		case opIParam:
			ireg[in.dst] = env.IntArgs[in.imm]
		case opGID:
			ireg[in.dst] = gid[in.imm]

		case opFConst:
			freg[in.dst] = in.fimm
			fprec[in.dst] = precision.Invalid // untyped
		case opFMov:
			freg[in.dst] = freg[in.a]
			fprec[in.dst] = fprec[in.a]
		case opFAdd:
			p := promote2(fprec[in.a], fprec[in.b])
			freg[in.dst] = round(freg[in.a]+freg[in.b], p)
			fprec[in.dst] = p
			st.flops[p]++
		case opFSub:
			p := promote2(fprec[in.a], fprec[in.b])
			freg[in.dst] = round(freg[in.a]-freg[in.b], p)
			fprec[in.dst] = p
			st.flops[p]++
		case opFMul:
			p := promote2(fprec[in.a], fprec[in.b])
			freg[in.dst] = round(freg[in.a]*freg[in.b], p)
			fprec[in.dst] = p
			st.flops[p]++
		case opFDiv:
			p := promote2(fprec[in.a], fprec[in.b])
			freg[in.dst] = round(freg[in.a]/freg[in.b], p)
			fprec[in.dst] = p
			st.flops[p] += weightDiv
		case opFMin:
			p := promote2(fprec[in.a], fprec[in.b])
			freg[in.dst] = round(math.Min(freg[in.a], freg[in.b]), p)
			fprec[in.dst] = p
			st.flops[p]++
		case opFMax:
			p := promote2(fprec[in.a], fprec[in.b])
			freg[in.dst] = round(math.Max(freg[in.a], freg[in.b]), p)
			fprec[in.dst] = p
			st.flops[p]++
		case opFNeg:
			freg[in.dst] = -freg[in.a]
			fprec[in.dst] = fprec[in.a]
			st.flops[fprec[in.a]]++
		case opFAbs:
			freg[in.dst] = math.Abs(freg[in.a])
			fprec[in.dst] = fprec[in.a]
			st.flops[fprec[in.a]]++
		case opFSqrt:
			p := fprec[in.a]
			freg[in.dst] = round(math.Sqrt(freg[in.a]), p)
			fprec[in.dst] = p
			st.flops[p] += weightSqrt
		case opFExp:
			p := fprec[in.a]
			freg[in.dst] = round(math.Exp(freg[in.a]), p)
			fprec[in.dst] = p
			st.flops[p] += weightTrans
		case opFLog:
			p := fprec[in.a]
			freg[in.dst] = round(math.Log(freg[in.a]), p)
			fprec[in.dst] = p
			st.flops[p] += weightTrans
		case opFFMA:
			p := promote2(promote2(fprec[in.a], fprec[in.b]), fprec[in.c])
			freg[in.dst] = round(math.FMA(freg[in.a], freg[in.b], freg[in.c]), p)
			fprec[in.dst] = p
			st.flops[p]++
		case opItoF:
			freg[in.dst] = float64(ireg[in.a])
			fprec[in.dst] = precision.Invalid

		case opLoad:
			buf := env.Bufs[in.imm]
			idx := ireg[in.a]
			if idx < 0 || idx >= int64(buf.Len()) {
				return fmt.Errorf("load %s[%d] out of bounds (len %d)", p.Kernel.Bufs[in.imm].Name, idx, buf.Len())
			}
			v := buf.Get(int(idx))
			ca := computeAs[in.imm]
			if converts[in.imm] {
				v = round(v, ca)
				st.convOps++
			}
			freg[in.dst] = v
			fprec[in.dst] = ca
			st.loadB += sizes[in.imm]
		case opStore:
			buf := env.Bufs[in.imm]
			idx := ireg[in.a]
			if idx < 0 || idx >= int64(buf.Len()) {
				return fmt.Errorf("store %s[%d] out of bounds (len %d)", p.Kernel.Bufs[in.imm].Name, idx, buf.Len())
			}
			buf.Set(int(idx), freg[in.b])
			if converts[in.imm] {
				st.convOps++
			}
			st.storeB += sizes[in.imm]

		case opICmp:
			ireg[in.dst] = boolToInt(cmpInt(in.cmp, ireg[in.a], ireg[in.b]))
			st.intOps++
		case opFCmp:
			ireg[in.dst] = boolToInt(cmpFloat(in.cmp, freg[in.a], freg[in.b]))
			st.intOps++
		case opBAnd:
			ireg[in.dst] = boolToInt(ireg[in.a] != 0 && ireg[in.b] != 0)
			st.intOps++
		case opBOr:
			ireg[in.dst] = boolToInt(ireg[in.a] != 0 || ireg[in.b] != 0)
			st.intOps++

		case opJump:
			pc = int(in.imm) - 1
		case opJumpIfZ:
			if ireg[in.a] == 0 {
				pc = int(in.imm) - 1
			}

		case opSelI:
			if ireg[in.a] != 0 {
				ireg[in.dst] = ireg[in.b]
			} else {
				ireg[in.dst] = ireg[in.c]
			}
			st.intOps++
		case opSelF:
			if ireg[in.a] != 0 {
				freg[in.dst] = freg[in.b]
				fprec[in.dst] = fprec[in.b]
			} else {
				freg[in.dst] = freg[in.c]
				fprec[in.dst] = fprec[in.c]
			}
			st.intOps++

		default:
			return fmt.Errorf("unknown opcode %d", in.op)
		}
	}
	return nil
}

// promote2 is precision.Promote with Invalid (untyped) as the identity.
func promote2(a, b precision.Type) precision.Type {
	if a > b {
		return a
	}
	return b
}

// round rounds v to precision t; untyped (Invalid) stays at float64.
func round(v float64, t precision.Type) float64 {
	if t == precision.Invalid || t == precision.Double {
		return v
	}
	return precision.Round(v, t)
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func cmpInt(op CmpOp, a, b int64) bool {
	switch op {
	case CmpLT:
		return a < b
	case CmpLE:
		return a <= b
	case CmpGT:
		return a > b
	case CmpGE:
		return a >= b
	case CmpEQ:
		return a == b
	default:
		return a != b
	}
}

func cmpFloat(op CmpOp, a, b float64) bool {
	switch op {
	case CmpLT:
		return a < b
	case CmpLE:
		return a <= b
	case CmpGT:
		return a > b
	case CmpGE:
		return a >= b
	case CmpEQ:
		return a == b
	default:
		return a != b
	}
}
