package kir

// This file implements local value numbering (LVN) over the lowered
// bytecode: within each basic block, pure instructions that recompute an
// already-available value are replaced by register moves (which the
// interpreter does not charge as operations), and duplicate loads from
// the same buffer and index collapse until a store invalidates them.
//
// Typical wins come from index arithmetic: stencil kernels recompute
// (i+di)*stride for several taps, and multi-accumulator kernels load the
// same element twice. Because the cost model charges exactly the executed
// operations, LVN lowers both simulated kernel time and host
// interpretation time — like a real kernel compiler would.

// vnKey identifies a computed value: opcode plus operand value numbers
// and immediates.
type vnKey struct {
	op      opcode
	a, b, c int32 // operand value numbers (-1 when unused)
	imm     int64
	fimm    float64
	cmp     CmpOp
}

// optimize applies LVN to the program in place.
func (p *Program) optimize() {
	blocks := blockBoundaries(p.code)
	for i := 0; i+1 < len(blocks); i++ {
		lvnBlock(p, blocks[i], blocks[i+1])
	}
}

// blockBoundaries returns the sorted list of basic-block leader indices
// plus a trailing len(code) sentinel.
func blockBoundaries(code []inst) []int {
	leaders := map[int]bool{0: true, len(code): true}
	for i, in := range code {
		switch in.op {
		case opJump:
			leaders[int(in.imm)] = true
			leaders[i+1] = true
		case opJumpIfZ:
			leaders[int(in.imm)] = true
			leaders[i+1] = true
		}
	}
	out := make([]int, 0, len(leaders))
	for i := range leaders {
		if i <= len(code) {
			out = append(out, i)
		}
	}
	// Insertion sort: the list is tiny.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// regFile distinguishes the integer and float register files in value
// numbering.
type regFile uint8

const (
	fileInt regFile = iota
	fileFloat
)

// lvnBlock value-numbers one basic block [start, end).
func lvnBlock(p *Program, start, end int) {
	nextVN := int32(1)
	newVN := func() int32 { v := nextVN; nextVN++; return v }

	// Value number currently held by each register.
	iVN := make([]int32, p.nIReg)
	fVN := make([]int32, p.nFReg)
	for i := range iVN {
		iVN[i] = newVN() // unknown incoming values get fresh numbers
	}
	for i := range fVN {
		fVN[i] = newVN()
	}

	// For each known value number, a register that still holds it.
	type home struct {
		file regFile
		reg  int32
	}
	homes := map[int32]home{}
	exprs := map[vnKey]int32{} // expression -> value number
	var loadKeys []vnKey       // load expressions, invalidated on store

	setI := func(reg int32, vn int32) {
		if old := iVN[reg]; old != 0 {
			if h, ok := homes[old]; ok && h.file == fileInt && h.reg == reg {
				delete(homes, old)
			}
		}
		iVN[reg] = vn
		homes[vn] = home{fileInt, reg}
	}
	setF := func(reg int32, vn int32) {
		if old := fVN[reg]; old != 0 {
			if h, ok := homes[old]; ok && h.file == fileFloat && h.reg == reg {
				delete(homes, old)
			}
		}
		fVN[reg] = vn
		homes[vn] = home{fileFloat, reg}
	}

	for pc := start; pc < end; pc++ {
		in := &p.code[pc]
		var key vnKey
		var dstFile regFile
		pure := true

		switch in.op {
		case opNop, opJump:
			continue
		case opJumpIfZ:
			continue
		case opStore:
			// Stores invalidate all cached loads (conservative aliasing).
			for _, lk := range loadKeys {
				delete(exprs, lk)
			}
			loadKeys = loadKeys[:0]
			continue

		case opIMov:
			// Copy propagation: dst adopts src's number.
			setI(in.dst, iVN[in.a])
			continue
		case opFMov:
			setF(in.dst, fVN[in.a])
			continue

		case opIConst:
			key = vnKey{op: in.op, a: -1, b: -1, c: -1, imm: in.imm}
			dstFile = fileInt
		case opIParam, opGID:
			key = vnKey{op: in.op, a: -1, b: -1, c: -1, imm: in.imm}
			dstFile = fileInt
		case opIAddImm:
			key = vnKey{op: in.op, a: iVN[in.a], b: -1, c: -1, imm: in.imm}
			dstFile = fileInt
		case opIAdd, opISub, opIMul, opIDiv, opIMod, opIMin, opIMax:
			key = vnKey{op: in.op, a: iVN[in.a], b: iVN[in.b], c: -1}
			dstFile = fileInt
			// Commutative ops get canonical operand order.
			if (in.op == opIAdd || in.op == opIMul || in.op == opIMin || in.op == opIMax) && key.a > key.b {
				key.a, key.b = key.b, key.a
			}
		case opINeg, opIAbs:
			key = vnKey{op: in.op, a: iVN[in.a], b: -1, c: -1}
			dstFile = fileInt
		case opICmp:
			key = vnKey{op: in.op, a: iVN[in.a], b: iVN[in.b], c: -1, cmp: in.cmp}
			dstFile = fileInt
		case opFCmp:
			key = vnKey{op: in.op, a: fVN[in.a], b: fVN[in.b], c: -1, cmp: in.cmp}
			dstFile = fileInt
		case opBAnd, opBOr:
			key = vnKey{op: in.op, a: iVN[in.a], b: iVN[in.b], c: -1}
			dstFile = fileInt
			if key.a > key.b {
				key.a, key.b = key.b, key.a
			}
		case opSelI:
			key = vnKey{op: in.op, a: iVN[in.a], b: iVN[in.b], c: iVN[in.c]}
			dstFile = fileInt

		case opFConst:
			key = vnKey{op: in.op, a: -1, b: -1, c: -1, fimm: in.fimm}
			dstFile = fileFloat
		case opFAdd, opFSub, opFMul, opFDiv, opFMin, opFMax:
			key = vnKey{op: in.op, a: fVN[in.a], b: fVN[in.b], c: -1}
			dstFile = fileFloat
			if (in.op == opFAdd || in.op == opFMul || in.op == opFMin || in.op == opFMax) && key.a > key.b {
				key.a, key.b = key.b, key.a
			}
		case opFNeg, opFAbs, opFSqrt, opFExp, opFLog:
			key = vnKey{op: in.op, a: fVN[in.a], b: -1, c: -1}
			dstFile = fileFloat
		case opFFMA:
			key = vnKey{op: in.op, a: fVN[in.a], b: fVN[in.b], c: fVN[in.c]}
			dstFile = fileFloat
			if key.a > key.b {
				key.a, key.b = key.b, key.a
			}
		case opItoF:
			key = vnKey{op: in.op, a: iVN[in.a], b: -1, c: -1}
			dstFile = fileFloat
		case opSelF:
			key = vnKey{op: in.op, a: iVN[in.a], b: fVN[in.b], c: fVN[in.c]}
			dstFile = fileFloat

		case opLoad:
			key = vnKey{op: in.op, a: iVN[in.a], b: -1, c: -1, imm: in.imm}
			dstFile = fileFloat
		default:
			pure = false
		}
		if !pure {
			continue
		}

		if vn, ok := exprs[key]; ok {
			if h, okH := homes[vn]; okH && h.file == dstFile {
				// Replace the recomputation with a move (or a nop when the
				// value is already in place).
				if h.reg == in.dst {
					*in = inst{op: opNop}
				} else if dstFile == fileInt {
					*in = inst{op: opIMov, dst: in.dst, a: h.reg}
				} else {
					*in = inst{op: opFMov, dst: in.dst, a: h.reg}
				}
				if dstFile == fileInt {
					setI(in.dst, vn)
				} else {
					setF(in.dst, vn)
				}
				continue
			}
		}
		vn := newVN()
		exprs[key] = vn
		if in.op == opLoad {
			loadKeys = append(loadKeys, key)
		}
		if dstFile == fileInt {
			setI(in.dst, vn)
		} else {
			setF(in.dst, vn)
		}
	}
}

// CompileUnoptimized is Compile without the bytecode value-numbering
// pass, used by differential tests and the compiler-ablation benchmarks.
func CompileUnoptimized(k *Kernel) (*Program, error) {
	if err := Verify(k); err != nil {
		return nil, err
	}
	return lower(EliminateDeadLets(Fold(k)))
}
