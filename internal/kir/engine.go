package kir

import (
	"fmt"
	"sync/atomic"
)

// Engine selects the interpreter implementation used to execute a
// Program over an NDRange. Both engines are functionally identical —
// every buffer effect, dynamic count, and error is bit-for-bit the same —
// so the choice is purely a host-side performance decision.
type Engine uint8

const (
	// EngineAuto defers to the process-wide default (see
	// SetDefaultEngine); it is the zero value so an unset
	// ExecEnv.Engine picks the default.
	EngineAuto Engine = iota
	// EngineTree is the per-work-item bytecode walker: one item at a
	// time, full dynamic precision tracking. It is the reference
	// semantics and the differential-testing oracle.
	EngineTree
	// EngineBatch is the vectorized strip engine: the NDRange executes
	// in fixed-size strips over columnar (SoA) register files, with the
	// bytecode specialized once per (kernel, precision binding).
	// Bindings whose precision dataflow cannot be resolved statically
	// still run batched, on a dyn tape that tracks precision per lane;
	// only bytecode the lowerer did not produce falls back to EngineTree.
	EngineBatch
)

func (e Engine) String() string {
	switch e {
	case EngineTree:
		return "tree"
	case EngineBatch:
		return "batch"
	default:
		return "auto"
	}
}

// ParseEngine maps the CLI spelling of an engine ("tree" or "batch") to
// its Engine value.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "tree":
		return EngineTree, nil
	case "batch":
		return EngineBatch, nil
	default:
		return EngineAuto, fmt.Errorf("kir: unknown interpreter engine %q (want tree or batch)", s)
	}
}

// defaultEngine is the process-wide engine used when ExecEnv.Engine is
// EngineAuto. Batch is the default: it is ≥5x faster on the kernel suite
// and byte-identical to tree on every artifact.
var defaultEngine atomic.Uint32

func init() { defaultEngine.Store(uint32(EngineBatch)) }

// SetDefaultEngine sets the process-wide default interpreter engine,
// returning the previous default. CLIs call it once at startup from the
// -interp flag; tests that pin an engine restore the previous value.
func SetDefaultEngine(e Engine) Engine {
	if e == EngineAuto {
		e = EngineBatch
	}
	return Engine(defaultEngine.Swap(uint32(e)))
}

// DefaultEngine returns the process-wide default interpreter engine.
func DefaultEngine() Engine { return Engine(defaultEngine.Load()) }

// resolveEngine maps an ExecEnv's engine request to a concrete engine.
func resolveEngine(e Engine) Engine {
	if e == EngineAuto {
		return DefaultEngine()
	}
	return e
}
