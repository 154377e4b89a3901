package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// clusterNode is one in-process prescalerd node bound to a real TCP
// port (the ring needs concrete addresses before New runs, so these
// tests reserve listeners first).
type clusterNode struct {
	addr string
	srv  *Server
	hs   *http.Server
	obs  *obs.Observer
}

func (n *clusterNode) url() string { return "http://" + n.addr }

func startCluster(t *testing.T, size int) []*clusterNode {
	t.Helper()
	return startClusterCfg(t, size, nil)
}

// startClusterCfg starts a cluster with a per-node Config hook (applied
// after the defaults, before New), for tests that need replication or
// persistence.
func startClusterCfg(t *testing.T, size int, configure func(i int, cfg *Config)) []*clusterNode {
	t.Helper()
	nodes := make([]*clusterNode, size)
	addrs := make([]string, size)
	listeners := make([]net.Listener, size)
	for i := range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for i := range nodes {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		o := obs.New()
		cfg := Config{
			Workers:  2,
			Obs:      o,
			Workload: testWorkloads,
			Self:     addrs[i],
			Peers:    peers,
			// Membership stays static: these tests exercise the dial
			// gate and proxy fallback paths, which must work during the
			// window before any probe verdict lands.
			ProbeInterval: time.Hour,
		}
		if configure != nil {
			configure(i, &cfg)
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(listeners[i])
		nodes[i] = &clusterNode{addr: addrs[i], srv: srv, hs: hs, obs: o}
		t.Cleanup(func() { hs.Close(); srv.Close() })
	}
	return nodes
}

// fingerprintFor asks a node for the decision id of a request body
// without searching.
func fingerprintFor(t *testing.T, node *clusterNode, body string) string {
	t.Helper()
	resp, err := http.Post(node.url()+"/v1/scale?fingerprint=1", "application/json",
		strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var out struct {
		DecisionID string `json:"decision_id"`
	}
	if err := json.Unmarshal(b, &out); err != nil || out.DecisionID == "" {
		t.Fatalf("fingerprint response: %s", b)
	}
	return out.DecisionID
}

// A two-node ring must agree on ownership, proxy /v1/scale by it, and
// answer with byte-identical bodies whichever node is hit.
func TestClusterProxiesByOwnership(t *testing.T) {
	nodes := startCluster(t, 2)
	reqBody := `{"benchmark":"veccombine","toq":0.9}`
	id := fingerprintFor(t, nodes[0], reqBody)

	if a, b := nodes[0].srv.view.Ring().Owner(id), nodes[1].srv.view.Ring().Owner(id); a != b {
		t.Fatalf("nodes disagree on owner: %q vs %q", a, b)
	}
	owner, other := nodes[0], nodes[1]
	if nodes[0].srv.view.Ring().Owner(id) != nodes[0].addr {
		owner, other = nodes[1], nodes[0]
	}

	// Hitting the owner computes locally.
	resp, err := http.Post(owner.url()+"/v1/scale", "application/json", strings.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	ownerBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("owner: status %d, X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}

	// Hitting the non-owner proxies to the owner: X-Cache remote, the
	// owner's own state rides in X-Cache-Origin, the body is identical.
	resp, err = http.Post(other.url()+"/v1/scale", "application/json", strings.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	remoteBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("non-owner: status %d: %s", resp.StatusCode, remoteBody)
	}
	if c := resp.Header.Get("X-Cache"); c != "remote" {
		t.Errorf("non-owner X-Cache = %q, want remote", c)
	}
	if oc := resp.Header.Get("X-Cache-Origin"); oc != "hit" {
		t.Errorf("X-Cache-Origin = %q, want hit (owner had it cached)", oc)
	}
	if did := resp.Header.Get("X-Decision-Id"); did != id {
		t.Errorf("X-Decision-Id = %q, want %q", did, id)
	}
	if !bytes.Equal(ownerBody, remoteBody) {
		t.Error("proxied body differs from the owner's — determinism invariant broken")
	}
	if v := other.obs.Metrics().Counter("service_proxy", obs.L("result", "ok")).Value(); v != 1 {
		t.Errorf("proxy ok counter = %v, want 1", v)
	}
	// Sharding, not replication: the non-owner must not have stored the
	// proxied body in its own LRU.
	if _, ok := other.srv.cached(id); ok {
		t.Error("non-owner cached a proxied decision; the shard should live on the owner only")
	}

	// A request already forwarded once is answered locally, never
	// re-proxied (loop prevention).
	req, err := http.NewRequest("POST", other.url()+"/v1/scale", strings.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(headerForwarded, "test")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	fwdBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if c := resp.Header.Get("X-Cache"); c != "miss" {
		t.Errorf("forwarded request X-Cache = %q, want miss (local compute)", c)
	}
	if !bytes.Equal(fwdBody, ownerBody) {
		t.Error("locally computed body differs from the owner's")
	}
}

// When the owner is dead, the non-owner must fall back to local compute
// and still answer 200 with the correct body.
func TestClusterFallbackOnPeerDeath(t *testing.T) {
	nodes := startCluster(t, 2)
	// Find a request owned by node 1, then kill node 1.
	var reqBody string
	for i := 0; i < 40; i++ {
		body := fmt.Sprintf(`{"benchmark":"veccombine","toq":0.5%02d}`, i)
		id := fingerprintFor(t, nodes[0], body)
		if nodes[0].srv.view.Ring().Owner(id) == nodes[1].addr {
			reqBody = body
			break
		}
	}
	if reqBody == "" {
		t.Fatal("no fingerprint owned by node 1 in 40 tries")
	}
	nodes[1].hs.Close()

	resp, err := http.Post(nodes[0].url()+"/v1/scale", "application/json", strings.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fallback: status %d: %s", resp.StatusCode, body)
	}
	if c := resp.Header.Get("X-Cache"); c != "miss" {
		t.Errorf("fallback X-Cache = %q, want miss (computed locally)", c)
	}
	if v := nodes[0].obs.Metrics().Counter("service_proxy", obs.L("result", "fallback")).Value(); v != 1 {
		t.Errorf("proxy fallback counter = %v, want 1", v)
	}
	// The decision landed in the survivor's cache: a repeat is a local
	// hit without another proxy attempt.
	resp, err = http.Post(nodes[0].url()+"/v1/scale", "application/json", strings.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if c := resp.Header.Get("X-Cache"); c != "hit" {
		t.Errorf("repeat after fallback X-Cache = %q, want hit", c)
	}
	if !bytes.Equal(body, body2) {
		t.Error("fallback repeat body differs")
	}
}

// ownedBy returns the first of bodies whose fingerprint node owns.
func ownedBy(t *testing.T, node *clusterNode, bodies []string) string {
	t.Helper()
	for _, body := range bodies {
		if node.srv.view.Ring().Owner(fingerprintFor(t, node, body)) == node.addr {
			return body
		}
	}
	t.Fatalf("no fingerprint owned by %s among %d bodies", node.addr, len(bodies))
	return ""
}

// A live owner's 5xx is an answer, not a peer failure: an injected
// device loss still reaches the client as 502 device_lost, but it must
// not trip the owner's dial gate, so the owner's next request is still
// proxied rather than searched locally.
func TestClusterPeer5xxKeepsGateClosed(t *testing.T) {
	nodes := startCluster(t, 2)
	var lost, clean []string
	for i := 0; i < 40; i++ {
		lost = append(lost, fmt.Sprintf(`{"benchmark":"veccombine","toq":0.6%02d,"faults":"devlost:1"}`, i))
		clean = append(clean, fmt.Sprintf(`{"benchmark":"veccombine","toq":0.7%02d}`, i))
	}
	lostBody, cleanBody := ownedBy(t, nodes[1], lost), ownedBy(t, nodes[1], clean)

	for i := 0; i < gateThreshold; i++ {
		resp, body := postScaleURL(t, nodes[0].url(), lostBody)
		if resp.StatusCode != http.StatusBadGateway || !strings.Contains(string(body), `"device_lost"`) {
			t.Fatalf("devlost request %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	gauge := nodes[0].obs.Metrics().Gauge("service_breaker_state", obs.L("peer", nodes[1].addr))
	if g := gauge.Value(); g != 0 {
		t.Errorf("owner's service_breaker_state = %v after its 5xx answers, want 0", g)
	}
	resp, body := postScaleURL(t, nodes[0].url(), cleanBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clean request: status %d: %s", resp.StatusCode, body)
	}
	if c := resp.Header.Get("X-Cache"); c != "remote" {
		t.Errorf("clean request X-Cache = %q, want remote (proxied to the live owner)", c)
	}
}

// A client that leaves while its request is the owner's half-open trial
// says nothing about the owner: the proxy hands the trial slot back, so
// the next request is admitted as the new trial instead of being
// refused for good.
func TestClusterAbandonedTrialReleasesGate(t *testing.T) {
	nodes := startCluster(t, 2)
	var bodies []string
	for i := 0; i < 40; i++ {
		bodies = append(bodies, fmt.Sprintf(`{"benchmark":"veccombine","toq":0.8%02d}`, i))
	}
	reqBody := ownedBy(t, nodes[1], bodies)
	reached := make(chan struct{}, 1)
	nodes[1].srv.testSearchStarted = func(ctx context.Context, _ string) {
		reached <- struct{}{}
		<-ctx.Done()
	}
	h := nodes[0].srv.peers[nodes[1].addr]
	trip(h)
	h.mu.Lock()
	h.now = func() time.Time { return time.Now().Add(time.Hour) } // backoff elapsed
	h.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", nodes[0].url()+"/v1/scale", strings.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	select {
	case <-reached: // the trial is in flight at the owner
	case <-time.After(10 * time.Second):
		t.Fatal("the trial never reached the owner")
	}
	cancel()
	<-done
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		h.mu.Lock()
		inFlight := h.trial != 0
		h.mu.Unlock()
		if !inFlight {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the abandoned trial still holds the gate's slot")
		}
	}
	ok, trial := h.allow()
	if !ok || trial == 0 {
		t.Fatalf("dial after the abandoned trial = (%v, %v), want the next trial", ok, trial)
	}
	h.report(dialAbandoned, trial)
}
