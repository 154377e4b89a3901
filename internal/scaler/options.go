package scaler

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"repro/internal/prog"
)

// ErrBadOptions marks an Options value that fails validation. Every
// error returned by Normalize wraps it, so callers (the CLI binaries and
// the decision service's HTTP layer) can classify invalid-configuration
// failures with errors.Is and map them to a deterministic exit code or
// HTTP status.
var ErrBadOptions = errors.New("scaler: invalid options")

// Normalize validates the options and fills every defaultable field in
// one place, returning the completed value. It is the single source of
// option defaults for the binaries: cmd/prescaler, cmd/prescalerd, and
// the decision service all build their search options exclusively
// through it instead of duplicating flag-default logic.
//
//   - TOQ: 0 selects the paper's 0.90; anything outside (0, 1] is an
//     error.
//   - InputSet: must be one of the three paper distributions.
//   - Workers: 0 selects GOMAXPROCS; negative is an error.
//   - Retries: zero is meaningful (no retries), so it is only validated:
//     negative or above maxRetries is an error. DefaultOptions carries
//     the paper-evaluation default of 2.
//   - EvalCache: a fresh cache is allocated when none was supplied, so
//     incremental trial evaluation is always on.
//
// Normalize never mutates the receiver; the returned Options is a
// completed copy. All defaults preserve the search outcome: Workers and
// EvalCache change only wall-clock time, never the decision or any
// artifact (see DESIGN.md, "Determinism under parallelism" and
// "Incremental trial evaluation").
func (o Options) Normalize() (Options, error) {
	if o.TOQ == 0 {
		o.TOQ = 0.90
	}
	if math.IsNaN(o.TOQ) || o.TOQ <= 0 || o.TOQ > 1 {
		return o, fmt.Errorf("%w: TOQ %v outside (0, 1]", ErrBadOptions, o.TOQ)
	}
	switch o.InputSet {
	case prog.InputDefault, prog.InputImage, prog.InputRandom:
	default:
		return o, fmt.Errorf("%w: unknown input set %v", ErrBadOptions, o.InputSet)
	}
	if o.Workers < 0 {
		return o, fmt.Errorf("%w: negative Workers %d", ErrBadOptions, o.Workers)
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Retries < 0 || o.Retries > maxRetries {
		return o, fmt.Errorf("%w: Retries %d outside [0, %d]", ErrBadOptions, o.Retries, maxRetries)
	}
	if o.EvalCache == nil {
		o.EvalCache = prog.NewEvalCache()
	}
	return o, nil
}
