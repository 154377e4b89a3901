package kir

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"repro/internal/precision"
)

// TapeInfo describes one cached batch tape of a Program.
type TapeInfo struct {
	// Binding is the effective compute precision of each buffer argument.
	Binding []precision.Type
	// Mask is the launch's non-empty mask (see Program.nonEmpty).
	Mask uint64
	// Dyn reports whether the tape tracks precision per lane.
	Dyn bool
}

// Tapes lists the batch tapes p has built so far, in key order.
func (p *Program) Tapes() []TapeInfo {
	c := &p.batch
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.tapes))
	for k := range c.tapes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]TapeInfo, len(keys))
	for i, k := range keys {
		out[i] = TapeInfo{Mask: binary.LittleEndian.Uint64([]byte(k)), Dyn: c.tapes[k].dyn}
		for _, b := range []byte(k[8:]) {
			out[i].Binding = append(out[i].Binding, precision.Type(b))
		}
	}
	return out
}

// DiffKernels exposes the differential-test kernel shapes to the
// external test package.
var DiffKernels = diffKernels

// LoopUniform reports, for each loop of p in bytecode order, whether the
// batch engine runs it as uniform among its active lanes.
func (p *Program) LoopUniform() []bool {
	var out []bool
	var walk func(nds []bnode)
	walk = func(nds []bnode) {
		for i := range nds {
			if nds[i].kind == bLoop {
				out = append(out, nds[i].uniform)
			}
			walk(nds[i].body)
			walk(nds[i].els)
		}
	}
	walk(p.nodes)
	return out
}

// Shapes returns p's disassembly with each instruction that runs once
// per round marked "once", and each lane instruction or uniform loop
// head that reads operand a or b from its scalar slot marked "a" or "b".
func (p *Program) Shapes() []string {
	lines := strings.Split(strings.TrimSuffix(p.Disassemble(), "\n"), "\n")[1:]
	for pc, sh := range p.shapes {
		switch sh {
		case shOnce:
			lines[pc] += "  [once]"
		case shA:
			lines[pc] += "  [a]"
		case shB:
			lines[pc] += "  [b]"
		case shA | shB:
			lines[pc] += "  [a b]"
		}
	}
	return lines
}

// CheckTree checks that p's control tree tiles its bytecode in order:
// every pc is exactly one of a pc in one jump-free bSeq span, a loop's
// head ICmp, a loop's exit JumpIfZ on the head's result that targets the
// loop's end, a loop's back Jump to its head, or an if's JumpIfZ or
// else-Jump, each targeting the end of the arm it skips.
func (p *Program) CheckTree() error {
	code := p.code
	// jumpAt reports whether pc is a Jump to target.
	jumpAt := func(pc, target int) bool {
		return pc < len(code) && code[pc].op == opJump && int(code[pc].imm) == target
	}
	pos := 0
	var walk func(nds []bnode) error
	walk = func(nds []bnode) error {
		for i := range nds {
			nd := &nds[i]
			start := nd.pc
			if nd.kind == bSeq {
				start = nd.lo
			}
			if start != pos {
				return fmt.Errorf("node at pc %d, want pc %d", start, pos)
			}
			switch nd.kind {
			case bSeq:
				if nd.hi <= nd.lo || nd.hi > len(code) {
					return fmt.Errorf("bSeq [%d, %d) is empty or out of range", nd.lo, nd.hi)
				}
				for pc := nd.lo; pc < nd.hi; pc++ {
					if op := code[pc].op; op == opJump || op == opJumpIfZ {
						return fmt.Errorf("bSeq [%d, %d) holds a jump at pc %d", nd.lo, nd.hi, pc)
					}
				}
				pos = nd.hi
			case bLoop:
				head, exit := &code[nd.pc], &code[nd.pc+1]
				if head.op != opICmp || exit.op != opJumpIfZ || exit.a != head.dst {
					return fmt.Errorf("loop at pc %d: no ICmp head and JumpIfZ exit on its result", nd.pc)
				}
				pos = nd.pc + 2
				if err := walk(nd.body); err != nil {
					return err
				}
				if !jumpAt(pos, nd.pc) {
					return fmt.Errorf("loop at pc %d: pc %d is not a Jump to the head", nd.pc, pos)
				}
				pos++
				if int(exit.imm) != pos {
					return fmt.Errorf("loop at pc %d: exit targets %d, want the loop end %d", nd.pc, exit.imm, pos)
				}
			case bIf:
				jz := &code[nd.pc]
				if jz.op != opJumpIfZ {
					return fmt.Errorf("if at pc %d: not a JumpIfZ", nd.pc)
				}
				pos = nd.pc + 1
				if err := walk(nd.body); err != nil {
					return err
				}
				if nd.els != nil {
					jmp := pos
					pos++
					if err := walk(nd.els); err != nil {
						return err
					}
					if !jumpAt(jmp, pos) {
						return fmt.Errorf("if at pc %d: pc %d is not a Jump over the else-arm to %d", nd.pc, jmp, pos)
					}
					if int(jz.imm) != jmp+1 {
						return fmt.Errorf("if at pc %d: JumpIfZ targets %d, want the else-arm at %d", nd.pc, jz.imm, jmp+1)
					}
				} else if int(jz.imm) != pos {
					return fmt.Errorf("if at pc %d: JumpIfZ targets %d, want the if end %d", nd.pc, jz.imm, pos)
				}
			}
		}
		return nil
	}
	if err := walk(p.nodes); err != nil {
		return fmt.Errorf("kernel %s: %w", p.Kernel.Name, err)
	}
	if pos != len(code) {
		return fmt.Errorf("kernel %s: tree ends at pc %d, want %d", p.Kernel.Name, pos, len(code))
	}
	return nil
}
