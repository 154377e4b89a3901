package api_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/api"
)

// The three session wire documents are golden-pinned like the rest of
// the v1 surface: a session document (create/get body), an evaluate
// response, and a generation record (SSE "generation" event payload).
func TestSessionDocumentsGolden(t *testing.T) {
	d := searchedDecision(t)

	sess := &api.Session{
		Schema:         api.Schema,
		ID:             "sess000000000001",
		Benchmark:      "veccombine",
		System:         "system1",
		TOQ:            0.9,
		InputSet:       "default",
		Generation:     1,
		TTLSeconds:     3600,
		DriftThreshold: 0.25,
		Decision:       d,
	}
	var buf bytes.Buffer
	if err := api.Encode(&buf, sess); err != nil {
		t.Fatal(err)
	}
	var backSess api.Session
	if err := json.Unmarshal(buf.Bytes(), &backSess); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*sess, backSess) {
		t.Errorf("session did not survive a JSON round trip:\n%+v\nvs\n%+v", *sess, backSess)
	}
	checkGolden(t, "session.json", buf.Bytes())

	ev := &api.EvaluateResponse{
		Schema:     api.Schema,
		Session:    "sess000000000001",
		Generation: 2,
		InputSet:   "image",
		Quality:    0.9321,
		TOQ:        0.9,
		TOQMet:     true,
		SimMs:      0.0125,
		Drift: []api.ObjectDrift{
			{Object: "a", Shift: 127.31, Drifted: true},
			{Object: "b", Shift: 0.0021},
		},
		Rescaled:      true,
		RescaleReason: "drift",
	}
	buf.Reset()
	if err := api.Encode(&buf, ev); err != nil {
		t.Fatal(err)
	}
	var backEv api.EvaluateResponse
	if err := json.Unmarshal(buf.Bytes(), &backEv); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*ev, backEv) {
		t.Errorf("evaluate response did not survive a JSON round trip:\n%+v\nvs\n%+v", *ev, backEv)
	}
	checkGolden(t, "evaluate.json", buf.Bytes())

	gen := &api.Generation{
		Schema:     api.Schema,
		Session:    "sess000000000001",
		Generation: 2,
		Reason:     "drift",
		InputSet:   "image",
		Warm:       true,
		Trials:     3,
		Diff: []api.GenerationChange{
			{Object: "a", From: "FP64", To: "FP32", Why: "moved"},
			{Object: "b", From: "FP32", To: "FP32", Why: "kept"},
		},
		Decision: d,
	}
	buf.Reset()
	if err := api.Encode(&buf, gen); err != nil {
		t.Fatal(err)
	}
	var backGen api.Generation
	if err := json.Unmarshal(buf.Bytes(), &backGen); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*gen, backGen) {
		t.Errorf("generation did not survive a JSON round trip:\n%+v\nvs\n%+v", *gen, backGen)
	}
	checkGolden(t, "generation.json", buf.Bytes())
}

func TestDecodeSessionRequest(t *testing.T) {
	req, err := api.DecodeSessionRequest(strings.NewReader(
		`{"benchmark":"GEMM","toq":0.95,"input_set":"random","ttl_seconds":600,"drift_threshold":0.1}`))
	if err != nil {
		t.Fatal(err)
	}
	if req.Benchmark != "GEMM" || req.TTLSeconds != 600 || req.DriftThreshold != 0.1 {
		t.Errorf("unexpected decode: %+v", req)
	}
	if req.Schema != api.Schema {
		t.Errorf("schema default = %q, want %q", req.Schema, api.Schema)
	}
	for name, body := range map[string]string{
		"missing benchmark": `{}`,
		"negative ttl":      `{"benchmark":"GEMM","ttl_seconds":-1}`,
		"negative drift":    `{"benchmark":"GEMM","drift_threshold":-0.5}`,
		"future schema":     `{"schema":"prescaler/v2","benchmark":"GEMM"}`,
		"unknown field":     `{"benchmark":"GEMM","tooq":0.9}`,
		"trailing document": `{"benchmark":"GEMM"} {"benchmark":"ATAX"}`,
		"trailing garbage":  `{"benchmark":"GEMM"}garbage`,
	} {
		if _, err := api.DecodeSessionRequest(strings.NewReader(body)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestDecodeEvaluateRequest(t *testing.T) {
	// An empty body means "same input set".
	req, err := api.DecodeEvaluateRequest(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if req.InputSet != "" || req.Schema != api.Schema {
		t.Errorf("empty body decode: %+v", req)
	}
	req, err = api.DecodeEvaluateRequest(strings.NewReader(`{"input_set":"image"}`))
	if err != nil {
		t.Fatal(err)
	}
	if req.InputSet != "image" {
		t.Errorf("unexpected decode: %+v", req)
	}
	for name, body := range map[string]string{
		"future schema":     `{"schema":"prescaler/v2"}`,
		"trailing document": `{"input_set":"image"} {"input_set":"random"}`,
		"trailing garbage":  `{"input_set":"image"}garbage`,
	} {
		if _, err := api.DecodeEvaluateRequest(strings.NewReader(body)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
