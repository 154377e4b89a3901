package kir

import (
	"encoding/binary"
	"sort"

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
	p.batchFor(make([]precision.Type, len(p.Kernel.Bufs)), 0) // builds the structure tree
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
	walk(p.batch.nodes)
	return out
}
