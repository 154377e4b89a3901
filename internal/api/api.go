// Package api defines the versioned wire schema of the PreScaler
// decision service (cmd/prescalerd) and of cmd/prescaler's -json
// output. Every document carries an explicit `"schema": "prescaler/v1"`
// field so clients can reject payloads from a future incompatible
// version instead of misparsing them.
//
// The package is deliberately dependency-light in both directions: it
// imports only the model packages it serializes (prog, hw, scaler,
// convert) and nothing from the service, so CLI binaries can emit the
// same documents without linking the HTTP layer. Decision documents are
// pure functions of the search result — they contain no timestamps,
// host names, request ids, or any other server-side state — which is
// what makes the daemon's response body byte-identical to the CLI's
// -json artifact for the same workload and options (the acceptance
// invariant CI's service-smoke job checks with cmp).
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/hw"
	"repro/internal/precision"
	"repro/internal/prog"
	"repro/internal/scaler"
)

// Schema is the version tag carried by every v1 document.
const Schema = "prescaler/v1"

// ScaleRequest is the body of POST /v1/scale: which benchmark to scale
// on which system preset, and the knobs that change the decision.
// Omitted fields take the same defaults as the CLI flags: system1,
// TOQ 0.90, the default input set, no fault injection, 2 retries.
type ScaleRequest struct {
	Schema    string  `json:"schema"`
	Benchmark string  `json:"benchmark"`
	System    string  `json:"system,omitempty"`
	TOQ       float64 `json:"toq,omitempty"`
	InputSet  string  `json:"input_set,omitempty"`
	Faults    string  `json:"faults,omitempty"`
	FaultSeed uint64  `json:"fault_seed,omitempty"`
	// Retries is a pointer so that an explicit 0 (no retries) is
	// distinguishable from an omitted field (default of 2).
	Retries *int `json:"retries,omitempty"`
}

// Workload summarizes a prog.Workload: the static shape a client needs
// to interpret a Decision, without the unserializable parts (input
// generators, compiled kernels).
type Workload struct {
	Schema     string   `json:"schema"`
	Name       string   `json:"name"`
	Original   string   `json:"original"`
	InputBytes int      `json:"input_bytes"`
	Objects    []Object `json:"objects"`
	Kernels    []string `json:"kernels"`
}

// Object is one memory object of a Workload.
type Object struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	Len  int    `json:"len"`
}

// Decision is the decision maker's answer for one (system, workload,
// options) triple: the chosen per-object precision configuration plus
// the search's measurements. It is the body of a POST /v1/scale
// response and of GET /v1/decisions/{id}.
type Decision struct {
	Schema    string           `json:"schema"`
	Benchmark string           `json:"benchmark"`
	System    string           `json:"system"`
	TOQ       float64          `json:"toq"`
	InputSet  string           `json:"input_set"`
	Objects   []DecisionObject `json:"objects"`
	Search    SearchReport     `json:"search"`
}

// DecisionObject is the chosen configuration for one memory object:
// its target precision, whether conversion happens in-kernel, and the
// conversion plan class of each transfer event.
type DecisionObject struct {
	Name     string         `json:"name"`
	Kind     string         `json:"kind"`
	Len      int            `json:"len"`
	Source   string         `json:"source"`
	Target   string         `json:"target"`
	InKernel bool           `json:"in_kernel,omitempty"`
	Plans    []TransferPlan `json:"plans,omitempty"`
}

// TransferPlan describes one transfer event's conversion: the class
// (none / host / device / transient / pipelined, see convert.Plan) and,
// when the wire precision is neither endpoint, the intermediate type.
type TransferPlan struct {
	Event int    `json:"event"`
	Class string `json:"class"`
	Via   string `json:"via,omitempty"`
}

// SearchReport carries the measurements of the configuration search —
// the scaler.Result numbers a client needs to judge the decision.
// Times are in milliseconds.
type SearchReport struct {
	Trials         int     `json:"trials"`
	SearchSpace    float64 `json:"search_space"`
	TreeSpace      float64 `json:"tree_space"`
	PredictedSpace float64 `json:"predicted_space"`
	BaselineMs     float64 `json:"baseline_ms"`
	FinalMs        float64 `json:"final_ms"`
	KernelMs       float64 `json:"kernel_ms"`
	HtoDMs         float64 `json:"htod_ms"`
	DtoHMs         float64 `json:"dtoh_ms"`
	Speedup        float64 `json:"speedup"`
	Quality        float64 `json:"quality"`
}

// System describes one system preset and its inspector database, the
// element type of GET /v1/systems.
type System struct {
	Schema   string  `json:"schema"`
	Name     string  `json:"name"`
	GPU      string  `json:"gpu"`
	CPU      string  `json:"cpu"`
	Bus      string  `json:"bus"`
	FP16     bool    `json:"fp16"`
	Curves   int     `json:"curves"`
	Sizes    []int   `json:"sizes"`
	ClockMHz float64 `json:"clock_mhz"`
}

// Error is the v1 error envelope. Code is a stable machine-readable
// string (see the service's status mapping); Message is human-readable
// detail and not part of the API contract. RetryAfterSeconds is set
// only on 429 "overloaded" responses (admission-control shedding) and
// mirrors the Retry-After header, so JSON clients get the back-off
// hint without parsing headers.
type Error struct {
	Schema            string `json:"schema"`
	Code              string `json:"code"`
	Message           string `json:"message"`
	RetryAfterSeconds int    `json:"retry_after_seconds,omitempty"`
}

// NewWorkload summarizes w as a wire document. Kernels are listed in
// sorted order so the document is deterministic.
func NewWorkload(w *prog.Workload) *Workload {
	out := &Workload{
		Schema:     Schema,
		Name:       w.Name,
		Original:   w.Original.String(),
		InputBytes: w.InputBytes,
	}
	for _, o := range w.Objects {
		out.Objects = append(out.Objects, Object{Name: o.Name, Kind: o.Kind.String(), Len: o.Len})
	}
	for name := range w.Kernels {
		out.Kernels = append(out.Kernels, name)
	}
	sort.Strings(out.Kernels)
	return out
}

// NewDecision builds the wire decision for a completed search. Objects
// are emitted in sorted name order and plans in event order, mirroring
// core.ScaledProgram.Describe, so two searches that chose the same
// configuration produce byte-identical documents.
func NewDecision(sys *hw.System, w *prog.Workload, res *scaler.Result, toq float64, set prog.InputSet) *Decision {
	d := &Decision{
		Schema:    Schema,
		Benchmark: w.Name,
		System:    sys.Name,
		TOQ:       toq,
		InputSet:  set.String(),
		Search: SearchReport{
			Trials:         res.Trials,
			SearchSpace:    res.SearchSpace,
			TreeSpace:      res.TreeSpace,
			PredictedSpace: res.PredictedSpace,
			BaselineMs:     res.BaselineTime * 1e3,
			FinalMs:        res.Final.Total * 1e3,
			KernelMs:       res.Final.KernelTime * 1e3,
			HtoDMs:         res.Final.HtoDTime * 1e3,
			DtoHMs:         res.Final.DtoHTime * 1e3,
			Speedup:        res.Speedup,
			Quality:        res.Quality,
		},
	}
	names := make([]string, 0, len(w.Objects))
	for _, o := range w.Objects {
		names = append(names, o.Name)
	}
	sort.Strings(names)
	for _, name := range names {
		spec := w.Object(name)
		oc := res.Config.Objects[name]
		obj := DecisionObject{
			Name:     name,
			Kind:     spec.Kind.String(),
			Len:      spec.Len,
			Source:   w.Original.String(),
			Target:   oc.Target.String(),
			InKernel: oc.InKernel,
		}
		storage := oc.Target
		if oc.InKernel {
			storage = w.Original
		}
		for i, plan := range oc.Plans {
			tp := TransferPlan{Event: i, Class: plan.Class(w.Original, storage)}
			if plan.Mid != w.Original && plan.Mid != storage {
				tp.Via = plan.Mid.String()
			}
			obj.Plans = append(obj.Plans, tp)
		}
		d.Objects = append(d.Objects, obj)
	}
	return d
}

// NewSystem summarizes a system preset and the curve inventory of its
// inspector database (curves and sizes may be zero when no database has
// been collected yet).
func NewSystem(sys *hw.System, curves int, sizes []int) *System {
	return &System{
		Schema:   Schema,
		Name:     sys.Name,
		GPU:      sys.GPU.Name,
		CPU:      sys.CPU.Name,
		Bus:      sys.Bus.String(),
		FP16:     sys.GPU.Supports(precision.Half),
		Curves:   curves,
		Sizes:    sizes,
		ClockMHz: sys.GPU.ClockMHz,
	}
}

// Encode writes v as two-space-indented JSON with a trailing newline —
// the one canonical rendering every v1 endpoint and the CLI -json flag
// use, so byte comparison of documents is meaningful.
func Encode(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// EncodeDecision writes d in the canonical v1 rendering.
func EncodeDecision(w io.Writer, d *Decision) error { return Encode(w, d) }

// ErrBadRequest marks a request body that failed decoding or schema
// validation. Every error the Decode* functions return wraps it, so
// the HTTP layer can map malformed input to 400 with errors.Is.
var ErrBadRequest = errors.New("api: bad scale request")

// decodeStrict decodes one JSON value from r into v and nothing else:
// unknown fields are rejected, and anything but whitespace after the
// value is too. An empty schema then defaults to v1; any other
// mismatch is an error, so clients speaking a future schema fail
// loudly. Every error wraps ErrBadRequest, and an empty body's also
// wraps io.EOF.
func decodeStrict(r io.Reader, v any, schema *string) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil && dec.Decode(new(json.RawMessage)) != io.EOF {
		err = errors.New("trailing data after the JSON value")
	}
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	if *schema == "" {
		*schema = Schema
	}
	if *schema != Schema {
		return fmt.Errorf("%w: unsupported schema %q (want %q)", ErrBadRequest, *schema, Schema)
	}
	return nil
}

// DecodeScaleRequest parses and validates a POST /v1/scale body: one
// JSON object with no unknown fields and no trailing data, so client
// typos and concatenated requests surface immediately. An empty schema
// field is accepted (it defaults to v1).
func DecodeScaleRequest(r io.Reader) (*ScaleRequest, error) {
	var req ScaleRequest
	if err := decodeStrict(r, &req, &req.Schema); err != nil {
		return nil, err
	}
	if req.Benchmark == "" {
		return nil, fmt.Errorf("%w: missing benchmark", ErrBadRequest)
	}
	return &req, nil
}
