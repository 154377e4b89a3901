package api

// This file holds the session wire types: the long-lived half of the
// v1 API. A session binds a (system, benchmark, TOQ) triple to a
// decision that evolves: each evaluate call executes an input batch
// under the current decision and reports achieved quality, and a
// drift- or TOQ-triggered re-scale emits a new decision generation
// with a diff explaining what changed.

import (
	"errors"
	"fmt"
	"io"
)

// SessionRequest is the body of POST /v1/sessions. The decision knobs
// (benchmark, system, toq, input_set, faults, retries) take the same
// defaults as ScaleRequest; ttl_seconds and drift_threshold default to
// the server's settings when zero.
type SessionRequest struct {
	Schema    string  `json:"schema"`
	Benchmark string  `json:"benchmark"`
	System    string  `json:"system,omitempty"`
	TOQ       float64 `json:"toq,omitempty"`
	InputSet  string  `json:"input_set,omitempty"`
	Faults    string  `json:"faults,omitempty"`
	FaultSeed uint64  `json:"fault_seed,omitempty"`
	Retries   *int    `json:"retries,omitempty"`
	// TTLSeconds shortens the server's idle expiry for this session; a
	// value at or above the server's limit gets the limit.
	TTLSeconds int `json:"ttl_seconds,omitempty"`
	// DriftThreshold overrides the normalized-shift threshold beyond
	// which an input object counts as drifted (see prog.NormalizedShift).
	DriftThreshold float64 `json:"drift_threshold,omitempty"`
}

// Session is the state document of a session: the body of a successful
// POST /v1/sessions and of GET /v1/sessions/{id}.
type Session struct {
	Schema         string    `json:"schema"`
	ID             string    `json:"id"`
	Benchmark      string    `json:"benchmark"`
	System         string    `json:"system"`
	TOQ            float64   `json:"toq"`
	InputSet       string    `json:"input_set"`
	Generation     int       `json:"generation"`
	TTLSeconds     int       `json:"ttl_seconds"`
	DriftThreshold float64   `json:"drift_threshold"`
	Decision       *Decision `json:"decision"`
}

// EvaluateRequest is the body of POST /v1/sessions/{id}/evaluate: which
// input batch to execute under the session's current decision. An empty
// input_set reuses the session's current set.
type EvaluateRequest struct {
	Schema   string `json:"schema"`
	InputSet string `json:"input_set,omitempty"`
}

// ObjectDrift reports the drift detector's view of one bound input
// object: the normalized shift of the batch's running statistics
// against the statistics the current generation was scaled for.
type ObjectDrift struct {
	Object  string  `json:"object"`
	Shift   float64 `json:"shift"`
	Drifted bool    `json:"drifted,omitempty"`
}

// EvaluateResponse reports one evaluate call: the quality the batch
// achieved under the decision that was current when it arrived, the
// drift detector's verdict, and — when a re-scale was triggered — the
// new generation number and why it exists. Generation is the generation
// after the call, so a rescaled response carries the new number.
type EvaluateResponse struct {
	Schema     string        `json:"schema"`
	Session    string        `json:"session"`
	Generation int           `json:"generation"`
	InputSet   string        `json:"input_set"`
	Quality    float64       `json:"quality"`
	TOQ        float64       `json:"toq"`
	TOQMet     bool          `json:"toq_met"`
	SimMs      float64       `json:"sim_ms"`
	Drift      []ObjectDrift `json:"drift,omitempty"`
	// Rescaled is set when this batch triggered a re-scale;
	// RescaleReason is "drift" or "toq".
	Rescaled      bool   `json:"rescaled,omitempty"`
	RescaleReason string `json:"rescale_reason,omitempty"`
	// RescaleFailed is set when a triggered re-scale could not complete
	// (fault injection): the previous generation stays in force.
	RescaleFailed bool `json:"rescale_failed,omitempty"`
}

// GenerationChange is one line of a generation diff: what happened to
// one memory object and why.
type GenerationChange struct {
	Object string `json:"object"`
	From   string `json:"from"`
	To     string `json:"to"`
	// Why is "moved" (error contribution shifted, re-searched), "kept"
	// (contribution held, seeded target retained), or "repaired" (raised
	// by the TOQ-repair pass).
	Why string `json:"why"`
}

// Generation is one decision generation of a session: the body of SSE
// "generation" events and the explain record of a re-scale. Reason is
// "initial" for generation 1, then "drift" or "toq".
type Generation struct {
	Schema     string             `json:"schema"`
	Session    string             `json:"session"`
	Generation int                `json:"generation"`
	Reason     string             `json:"reason"`
	InputSet   string             `json:"input_set"`
	Warm       bool               `json:"warm,omitempty"`
	Trials     int                `json:"trials"`
	Diff       []GenerationChange `json:"diff,omitempty"`
	Decision   *Decision          `json:"decision"`
}

// DecodeSessionRequest parses and validates a POST /v1/sessions body
// with the same strictness as DecodeScaleRequest: no unknown fields, no
// trailing data.
func DecodeSessionRequest(r io.Reader) (*SessionRequest, error) {
	var req SessionRequest
	if err := decodeStrict(r, &req, &req.Schema); err != nil {
		return nil, err
	}
	if req.Benchmark == "" {
		return nil, fmt.Errorf("%w: missing benchmark", ErrBadRequest)
	}
	if req.TTLSeconds < 0 {
		return nil, fmt.Errorf("%w: negative ttl_seconds", ErrBadRequest)
	}
	if req.DriftThreshold < 0 {
		return nil, fmt.Errorf("%w: negative drift_threshold", ErrBadRequest)
	}
	return &req, nil
}

// DecodeEvaluateRequest parses a POST /v1/sessions/{id}/evaluate body
// with the same strictness as DecodeScaleRequest. An empty body is
// accepted and means "same input set, default knobs".
func DecodeEvaluateRequest(r io.Reader) (*EvaluateRequest, error) {
	var req EvaluateRequest
	if err := decodeStrict(r, &req, &req.Schema); err != nil {
		if !errors.Is(err, io.EOF) {
			return nil, err
		}
		req = EvaluateRequest{Schema: Schema}
	}
	return &req, nil
}
