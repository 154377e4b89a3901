// Package client is the typed Go client for the prescalerd v1 API. It
// centralizes what every caller used to hand-roll: target rotation with
// transport-failure retries (what a load balancer in front of the fleet
// would do), the request headers (X-Client-Id, X-Deadline-Ms), response
// metadata extraction (X-Cache, X-Decision-Id, X-Cluster-Route, ...),
// the v1 error envelope, and SSE subscription. cmd/prescalerbench, the
// replica warm push in internal/service, and cmd/prescaler's -daemon
// mode all speak through it.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/api"
)

// Client issues v1 API requests. The zero value plus one target works;
// all fields are optional knobs.
type Client struct {
	// Targets are the base URLs ("http://host:port" or bare "host:port")
	// of the nodes to talk to. Requests go to the first; transport
	// failures rotate through the rest.
	Targets []string
	// HTTPClient issues the requests; nil selects http.DefaultClient.
	HTTPClient *http.Client
	// Retries is the number of transport-failure retries per request,
	// each against the next target in rotation (the same target again
	// when only one is configured). Every request makes at least one
	// attempt; a negative value counts as zero.
	Retries int
	// ClientID is sent as X-Client-Id (keys the server's fair queue).
	ClientID string
	// DeadlineMs is sent as X-Deadline-Ms (feeds deadline-aware
	// shedding); 0 sends nothing.
	DeadlineMs int
}

// Meta is the response metadata carried in headers, plus the client's
// own transport accounting.
type Meta struct {
	Status       int    // HTTP status code
	DecisionID   string // X-Decision-Id
	Cache        string // X-Cache: hit, miss, coalesced, remote
	CacheOrigin  string // X-Cache-Origin (proxied responses)
	ClusterRoute string // X-Cluster-Route: primary, replica-<i>, fallback
	RequestID    string // X-Request-Id
	RetryAfter   int    // Retry-After seconds (shed responses)
	Retried      int    // transport-failure retries spent on this call
	Target       string // the target that answered
}

// APIError is a non-2xx response decoded from the v1 error envelope.
type APIError struct {
	Status            int
	Code              string
	Message           string
	RetryAfterSeconds int
}

func (e *APIError) Error() string {
	return fmt.Sprintf("prescalerd: %s (%d): %s", e.Code, e.Status, e.Message)
}

// WithStart returns a shallow copy whose target rotation starts at the
// given target. A target not in Targets is prepended.
func (c *Client) WithStart(target string) *Client {
	cp := *c
	for i, t := range c.Targets {
		if t == target {
			cp.Targets = append(append([]string{}, c.Targets[i:]...), c.Targets[:i]...)
			return &cp
		}
	}
	cp.Targets = append([]string{target}, c.Targets...)
	return &cp
}

// WithClientID returns a shallow copy sending a different X-Client-Id.
func (c *Client) WithClientID(id string) *Client {
	cp := *c
	cp.ClientID = id
	return &cp
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) targets() []string {
	if len(c.Targets) == 0 {
		return []string{"http://127.0.0.1:8080"}
	}
	return c.Targets
}

// baseURL normalizes one target to a scheme-qualified base URL.
func baseURL(target string) string {
	if strings.Contains(target, "://") {
		return strings.TrimRight(target, "/")
	}
	return "http://" + strings.TrimRight(target, "/")
}

// do issues one request with target rotation. It returns the response
// (any status — the caller classifies) and the transport metadata; the
// error is non-nil only when every attempt failed at transport level,
// and the returned Meta then still carries the retry count.
func (c *Client) do(ctx context.Context, method, path string, body []byte) (*http.Response, *Meta, error) {
	targets := c.targets()
	retries := max(c.Retries, 0)
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		target := targets[attempt%len(targets)]
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, baseURL(target)+path, rd)
		if err != nil {
			return nil, &Meta{Retried: attempt}, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if c.ClientID != "" {
			req.Header.Set("X-Client-Id", c.ClientID)
		}
		if c.DeadlineMs > 0 {
			req.Header.Set("X-Deadline-Ms", strconv.Itoa(c.DeadlineMs))
		}
		resp, err := c.httpClient().Do(req)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				return nil, &Meta{Retried: attempt}, err
			}
			continue
		}
		return resp, metaFrom(resp, attempt, target), nil
	}
	return nil, &Meta{Retried: retries}, lastErr
}

// metaFrom extracts the header metadata of one response.
func metaFrom(resp *http.Response, retried int, target string) *Meta {
	m := &Meta{
		Status:       resp.StatusCode,
		DecisionID:   resp.Header.Get("X-Decision-Id"),
		Cache:        resp.Header.Get("X-Cache"),
		CacheOrigin:  resp.Header.Get("X-Cache-Origin"),
		ClusterRoute: resp.Header.Get("X-Cluster-Route"),
		RequestID:    resp.Header.Get("X-Request-Id"),
		Retried:      retried,
		Target:       target,
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		m.RetryAfter, _ = strconv.Atoi(ra)
	}
	return m
}

// errorFrom turns a non-2xx body into an *APIError, decoding the v1
// envelope when present.
func errorFrom(status int, body []byte) error {
	var e api.Error
	if json.Unmarshal(body, &e) == nil && e.Code != "" {
		return &APIError{Status: status, Code: e.Code, Message: e.Message,
			RetryAfterSeconds: e.RetryAfterSeconds}
	}
	return &APIError{Status: status, Code: "http_error",
		Message: strings.TrimSpace(string(body))}
}

// call issues a request expecting wantStatus, decoding the JSON body
// into out (skipped when out is nil).
func (c *Client) call(ctx context.Context, method, path string, reqBody []byte, wantStatus int, out any) (*Meta, error) {
	resp, meta, err := c.do(ctx, method, path, reqBody)
	if err != nil {
		return meta, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return meta, err
	}
	if resp.StatusCode != wantStatus {
		return meta, errorFrom(resp.StatusCode, body)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			return meta, fmt.Errorf("client: decode %s %s: %w", method, path, err)
		}
	}
	return meta, nil
}

// ScaleRaw POSTs a pre-encoded scale request body and returns the raw
// response body plus metadata, whatever the status — load generators
// classify (200 / 429 / ...) themselves. The error is non-nil only for
// transport-level failure after retries.
func (c *Client) ScaleRaw(ctx context.Context, reqBody []byte) ([]byte, *Meta, error) {
	resp, meta, err := c.do(ctx, http.MethodPost, "/v1/scale", reqBody)
	if err != nil {
		return nil, meta, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, meta, err
}

// Scale submits a scale request and returns the decoded decision plus
// the canonical body bytes (the byte-stable artifact surface).
func (c *Client) Scale(ctx context.Context, req *api.ScaleRequest) (*api.Decision, []byte, *Meta, error) {
	reqBody, err := json.Marshal(req)
	if err != nil {
		return nil, nil, nil, err
	}
	body, meta, err := c.ScaleRaw(ctx, reqBody)
	if err != nil {
		return nil, nil, meta, err
	}
	if meta.Status != http.StatusOK {
		return nil, nil, meta, errorFrom(meta.Status, body)
	}
	var d api.Decision
	if err := json.Unmarshal(body, &d); err != nil {
		return nil, nil, meta, fmt.Errorf("client: decode decision: %w", err)
	}
	return &d, body, meta, nil
}

// Fingerprint asks the server which decision id a request resolves to
// (POST /v1/scale?fingerprint=1) without running the search, and
// whether it is already cached.
func (c *Client) Fingerprint(ctx context.Context, req *api.ScaleRequest) (id string, cached bool, err error) {
	reqBody, err := json.Marshal(req)
	if err != nil {
		return "", false, err
	}
	var out struct {
		DecisionID string `json:"decision_id"`
		Cached     bool   `json:"cached"`
	}
	if _, err := c.call(ctx, http.MethodPost, "/v1/scale?fingerprint=1", reqBody, http.StatusOK, &out); err != nil {
		return "", false, err
	}
	return out.DecisionID, out.Cached, nil
}

// GetDecision re-fetches a completed decision by id.
func (c *Client) GetDecision(ctx context.Context, id string) (*api.Decision, []byte, error) {
	resp, meta, err := c.do(ctx, http.MethodGet, "/v1/decisions/"+id, nil)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if meta.Status != http.StatusOK {
		return nil, nil, errorFrom(meta.Status, body)
	}
	var d api.Decision
	if err := json.Unmarshal(body, &d); err != nil {
		return nil, nil, fmt.Errorf("client: decode decision: %w", err)
	}
	return &d, body, nil
}

// Trace fetches the wall-clock Chrome trace recorded for a decision.
func (c *Client) Trace(ctx context.Context, id string) ([]byte, error) {
	resp, meta, err := c.do(ctx, http.MethodGet, "/v1/decisions/"+id+"/trace", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if meta.Status != http.StatusOK {
		return nil, errorFrom(meta.Status, body)
	}
	return body, nil
}

// Warm pushes a decision body to a node's cache (the replica warming
// path; POST /v1/decisions/{id}/warm).
func (c *Client) Warm(ctx context.Context, id string, body []byte) error {
	_, err := c.call(ctx, http.MethodPost, "/v1/decisions/"+id+"/warm", body, http.StatusNoContent, nil)
	return err
}

// Health fetches the /v1/healthz document.
func (c *Client) Health(ctx context.Context) (map[string]any, error) {
	var out map[string]any
	if _, err := c.call(ctx, http.MethodGet, "/v1/healthz", nil, http.StatusOK, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// CreateSession opens a session (POST /v1/sessions).
func (c *Client) CreateSession(ctx context.Context, req *api.SessionRequest) (*api.Session, error) {
	reqBody, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var out api.Session
	if _, err := c.call(ctx, http.MethodPost, "/v1/sessions", reqBody, http.StatusCreated, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// GetSession fetches a session's current state.
func (c *Client) GetSession(ctx context.Context, id string) (*api.Session, error) {
	var out api.Session
	if _, err := c.call(ctx, http.MethodGet, "/v1/sessions/"+id, nil, http.StatusOK, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Evaluate submits one input batch to a session.
func (c *Client) Evaluate(ctx context.Context, id string, req *api.EvaluateRequest) (*api.EvaluateResponse, error) {
	reqBody, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var out api.EvaluateResponse
	if _, err := c.call(ctx, http.MethodPost, "/v1/sessions/"+id+"/evaluate", reqBody, http.StatusOK, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// CloseSession deletes a session.
func (c *Client) CloseSession(ctx context.Context, id string) error {
	_, err := c.call(ctx, http.MethodDelete, "/v1/sessions/"+id, nil, http.StatusNoContent, nil)
	return err
}

// Events subscribes to a decision's SSE progress stream, invoking fn
// for every event until the stream closes (the terminal "done"/"error"
// event included), fn returns an error, or ctx is canceled. opened, if
// not nil, is called once the daemon has accepted the subscription,
// before any event. POST the request to watch only then: a node that
// proxies it reports the answer only to the subscribers it already has.
func (c *Client) Events(ctx context.Context, id string, opened func(), fn func(event string, data []byte) error) error {
	return c.stream(ctx, "/v1/decisions/"+id+"/events", opened, fn)
}

// SessionEvents subscribes to a session's SSE lifecycle stream
// ("generation", "evaluate", terminal "done").
func (c *Client) SessionEvents(ctx context.Context, id string, fn func(event string, data []byte) error) error {
	return c.stream(ctx, "/v1/sessions/"+id+"/events", nil, fn)
}

// stream consumes one SSE response, calling opened (if set) once its
// headers arrive.
func (c *Client) stream(ctx context.Context, path string, opened func(), fn func(event string, data []byte) error) error {
	resp, meta, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if meta.Status != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return errorFrom(meta.Status, body)
	}
	if opened != nil {
		opened()
	}
	return readEvents(resp.Body, fn)
}

// readEvents reads server-sent event frames from r until it ends or fn
// returns an error, calling fn with each frame's event name and data.
// Lines end in LF or CRLF, a frame ends at a blank line, and a frame
// that the stream cuts off before its blank line is dropped. A line may
// be up to 8 MiB long.
func readEvents(r io.Reader, fn func(event string, data []byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	var event string
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "":
			if event != "" || data != nil {
				if err := fn(event, data); err != nil {
					return err
				}
			}
			event, data = "", nil
		}
	}
	return sc.Err()
}
