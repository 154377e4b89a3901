package scaler

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"repro/internal/prog"
)

func TestNormalizeDefaults(t *testing.T) {
	o, err := Options{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if o.TOQ != 0.90 {
		t.Errorf("TOQ = %v, want 0.90", o.TOQ)
	}
	if o.Workers != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers = %d, want GOMAXPROCS %d", o.Workers, runtime.GOMAXPROCS(0))
	}
	if o.EvalCache == nil {
		t.Error("EvalCache not allocated by default")
	}
	if o.Retries != 0 {
		t.Errorf("Retries = %d, want 0 (zero is meaningful, DefaultOptions sets 2)", o.Retries)
	}
}

func TestNormalizePreservesExplicitValues(t *testing.T) {
	cache := prog.NewEvalCache()
	in := Options{TOQ: 0.5, InputSet: prog.InputRandom, Workers: 3, Retries: 7, EvalCache: cache}
	o, err := in.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if o.TOQ != 0.5 || o.InputSet != prog.InputRandom || o.Workers != 3 || o.Retries != 7 {
		t.Errorf("explicit values changed: %+v", o)
	}
	if o.EvalCache != cache {
		t.Error("supplied EvalCache replaced")
	}
}

func TestNormalizeRejects(t *testing.T) {
	cases := map[string]Options{
		"toq negative":     {TOQ: -0.1},
		"toq above one":    {TOQ: 1.5},
		"toq NaN":          {TOQ: math.NaN()},
		"bad input set":    {InputSet: prog.InputSet(99)},
		"negative workers": {Workers: -1},
		"negative retries": {Retries: -2},
		"retries too many": {Retries: maxRetries + 1},
	}
	for name, o := range cases {
		if _, err := o.Normalize(); !errors.Is(err, ErrBadOptions) {
			t.Errorf("%s: error %v, want ErrBadOptions", name, err)
		}
	}
}

// Normalize must not mutate the receiver — callers reuse the original.
func TestNormalizePure(t *testing.T) {
	in := Options{}
	if _, err := in.Normalize(); err != nil {
		t.Fatal(err)
	}
	if in.TOQ != 0 || in.Workers != 0 || in.EvalCache != nil {
		t.Errorf("Normalize mutated its receiver: %+v", in)
	}
}
