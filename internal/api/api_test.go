package api_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/scaler"
	"repro/internal/wltest"
)

// -update regenerates the golden files under results/golden/api from
// the current encoder output.
var update = flag.Bool("update", false, "rewrite golden API documents")

func goldenPath(name string) string {
	return filepath.Join("..", "..", "results", "golden", "api", name)
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := goldenPath(name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden:\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// searchedDecision runs a real (small, deterministic) search and
// returns its wire decision — the same construction path the daemon
// and cmd/prescaler -json use.
func searchedDecision(t *testing.T) *api.Decision {
	t.Helper()
	sys := hw.System1()
	w := wltest.VecCombine(1 << 12)
	fw := core.NewFramework(sys)
	opts, err := scaler.DefaultOptions().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := fw.Scale(context.Background(), w, opts)
	if err != nil {
		t.Fatal(err)
	}
	return api.NewDecision(sys, w, sp.Search, opts.TOQ, opts.InputSet)
}

func TestDecisionRoundTrip(t *testing.T) {
	d := searchedDecision(t)
	var buf bytes.Buffer
	if err := api.EncodeDecision(&buf, d); err != nil {
		t.Fatal(err)
	}
	var back api.Decision
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*d, back) {
		t.Errorf("decision did not survive a JSON round trip:\n%+v\nvs\n%+v", *d, back)
	}
	if back.Schema != api.Schema {
		t.Errorf("schema field = %q, want %q", back.Schema, api.Schema)
	}
	// Encoding is canonical: a second encode of the decoded value is
	// byte-identical.
	var buf2 bytes.Buffer
	if err := api.EncodeDecision(&buf2, &back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("re-encoding a decoded decision changed bytes")
	}
	checkGolden(t, "decision.json", buf.Bytes())
}

func TestWorkloadRoundTrip(t *testing.T) {
	w := api.NewWorkload(wltest.VecCombine(1 << 12))
	var buf bytes.Buffer
	if err := api.Encode(&buf, w); err != nil {
		t.Fatal(err)
	}
	var back api.Workload
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*w, back) {
		t.Errorf("workload did not survive a JSON round trip:\n%+v\nvs\n%+v", *w, back)
	}
	checkGolden(t, "workload.json", buf.Bytes())
}

func TestSystemRoundTrip(t *testing.T) {
	sys := hw.System1()
	fw := core.NewFramework(sys)
	s := api.NewSystem(sys, fw.DB().NumCurves(), fw.DB().Sizes())
	var buf bytes.Buffer
	if err := api.Encode(&buf, s); err != nil {
		t.Fatal(err)
	}
	var back api.System
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*s, back) {
		t.Errorf("system did not survive a JSON round trip:\n%+v\nvs\n%+v", *s, back)
	}
	checkGolden(t, "system.json", buf.Bytes())
}

func TestErrorEnvelopeGolden(t *testing.T) {
	e := &api.Error{Schema: api.Schema, Code: "not_found", Message: "unknown benchmark \"NOPE\""}
	var buf bytes.Buffer
	if err := api.Encode(&buf, e); err != nil {
		t.Fatal(err)
	}
	var back api.Error
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back != *e {
		t.Errorf("error envelope round trip: %+v vs %+v", *e, back)
	}
	checkGolden(t, "error.json", buf.Bytes())
}

func TestDecodeScaleRequest(t *testing.T) {
	req, err := api.DecodeScaleRequest(strings.NewReader(
		`{"schema":"prescaler/v1","benchmark":"GEMM","toq":0.95,"input_set":"random"}`))
	if err != nil {
		t.Fatal(err)
	}
	if req.Benchmark != "GEMM" || req.TOQ != 0.95 || req.InputSet != "random" {
		t.Errorf("unexpected decode: %+v", req)
	}

	// Empty schema defaults to v1.
	req, err = api.DecodeScaleRequest(strings.NewReader(`{"benchmark":"ATAX"}`))
	if err != nil {
		t.Fatal(err)
	}
	if req.Schema != api.Schema {
		t.Errorf("schema default = %q, want %q", req.Schema, api.Schema)
	}

	// A future schema must be rejected, not misparsed.
	if _, err := api.DecodeScaleRequest(strings.NewReader(
		`{"schema":"prescaler/v2","benchmark":"GEMM"}`)); err == nil {
		t.Error("v2 schema accepted")
	}
	// Unknown fields are an error: clients discover typos immediately.
	if _, err := api.DecodeScaleRequest(strings.NewReader(
		`{"benchmark":"GEMM","tooq":0.95}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := api.DecodeScaleRequest(strings.NewReader(`{}`)); err == nil {
		t.Error("missing benchmark accepted")
	}
	// One request per body: a second document or trailing bytes are an
	// error, not silently ignored. Trailing whitespace is fine.
	for name, body := range map[string]string{
		"trailing document": `{"benchmark":"ATAX"} {"benchmark":"GEMM"}`,
		"trailing garbage":  `{"benchmark":"ATAX"}garbage`,
	} {
		if _, err := api.DecodeScaleRequest(strings.NewReader(body)); !errors.Is(err, api.ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", name, err)
		}
	}
	if _, err := api.DecodeScaleRequest(strings.NewReader("{\"benchmark\":\"ATAX\"}\n\t ")); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
}

// FuzzDecodeScaleRequest feeds arbitrary bytes to the /v1/scale
// decoder: it must never panic, every error must wrap ErrBadRequest,
// and an accepted request must survive a canonical re-encode unchanged.
func FuzzDecodeScaleRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := api.DecodeScaleRequest(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, api.ErrBadRequest) {
				t.Fatalf("error does not wrap ErrBadRequest: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := api.Encode(&buf, req); err != nil {
			t.Fatal(err)
		}
		back, err := api.DecodeScaleRequest(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded request rejected: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(req, back) {
			t.Fatalf("re-encode changed the request:\n%+v\nvs\n%+v", req, back)
		}
	})
}
