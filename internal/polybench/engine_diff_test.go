package polybench

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/hw"
	"repro/internal/precision"
	"repro/internal/prog"
	"repro/internal/wltest"
)

// TestEngineDifferentialSuite is the fuzz-style acceptance test for the
// batch interpreter: every registered PolyBench benchmark, at each
// uniform precision and under random per-object precision bindings in
// both scaling modes, must produce a Result identical to the Reference
// tree walker — output buffers bit for bit (including any Inf/NaN
// produced by half-precision overflow), and the full op/event
// accounting deeply equal. A kernel the batch engine cannot run fails
// here as an error mismatch.
func TestEngineDifferentialSuite(t *testing.T) {
	sys := hw.System1()
	rng := rand.New(rand.NewSource(7))
	targets := []precision.Type{precision.Half, precision.Single, precision.Double}

	for _, w := range SmallSuite() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			ref := wltest.OnReference(w)
			cfgs := []*prog.Config{nil, prog.NewConfig(w, precision.Half),
				prog.NewConfig(w, precision.Single), prog.NewConfig(w, precision.Double)}
			for trial := 0; trial < 4; trial++ {
				cfg := &prog.Config{Objects: map[string]prog.ObjectConfig{}}
				inKernel := trial%2 == 1
				for _, o := range w.Objects {
					cfg.Objects[o.Name] = prog.ObjectConfig{
						Target:   targets[rng.Intn(len(targets))],
						InKernel: inKernel,
					}
				}
				cfgs = append(cfgs, cfg)
			}
			for i, cfg := range cfgs {
				tree, errT := prog.Run(sys, ref, prog.InputDefault, cfg)
				batch, errB := prog.Run(sys, w, prog.InputDefault, cfg)

				if (errT == nil) != (errB == nil) ||
					(errT != nil && errT.Error() != errB.Error()) {
					t.Fatalf("cfg %d: error mismatch:\n tree:  %v\n batch: %v", i, errT, errB)
				}
				if errT != nil {
					continue
				}
				for name, to := range tree.Outputs {
					bo := batch.Outputs[name]
					if bo == nil {
						t.Fatalf("cfg %d: batch result missing output %s", i, name)
					}
					td, bd := to.Data(), bo.Data()
					for j := range td {
						if math.Float64bits(td[j]) != math.Float64bits(bd[j]) {
							t.Fatalf("cfg %d: output %s[%d]: tree %x (%g) batch %x (%g)",
								i, name, j, math.Float64bits(td[j]), td[j],
								math.Float64bits(bd[j]), bd[j])
						}
					}
				}
				tx, bx := *tree, *batch
				tx.Outputs, bx.Outputs = nil, nil
				if !reflect.DeepEqual(tx, bx) {
					t.Fatalf("cfg %d: op/event accounting differs between engines", i)
				}
			}
		})
	}
}
