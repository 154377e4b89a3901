package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
)

// postScale issues one scale request and returns the response plus its
// drained body.
func postScaleURL(t *testing.T, url, reqBody string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/scale", "application/json", strings.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, body
}

// With replication 2, the primary's compute must asynchronously warm
// the second replica's cache, and after the primary dies the replica
// answers the hot fingerprint as a local hit — failover without
// recompute.
func TestReplicationWarmsReplicaAndFailsOver(t *testing.T) {
	warmed := make(chan string, 8)
	nodes := startClusterCfg(t, 3, func(i int, cfg *Config) {
		cfg.Replication = 2
	})
	for _, n := range nodes {
		n.srv.testWarmed = func(id string) { warmed <- id }
	}
	byAddr := map[string]*clusterNode{}
	for _, n := range nodes {
		byAddr[n.addr] = n
	}

	reqBody := `{"benchmark":"veccombine","toq":0.9}`
	id := fingerprintFor(t, nodes[0], reqBody)
	owners := nodes[0].srv.view.Ring().OwnerN(id, 2)
	if len(owners) != 2 || owners[0] == owners[1] {
		t.Fatalf("OwnerN(2) = %v", owners)
	}
	primary, replica := byAddr[owners[0]], byAddr[owners[1]]
	var outsider *clusterNode
	for _, n := range nodes {
		if n != primary && n != replica {
			outsider = n
		}
	}

	// Compute on the primary.
	resp, primaryBody := postScaleURL(t, primary.url(), reqBody)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("primary: status %d, X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if route := resp.Header.Get("X-Cluster-Route"); route != "primary" {
		t.Errorf("X-Cluster-Route = %q, want primary", route)
	}
	if got := <-warmed; got != id {
		t.Fatalf("warmed id = %s, want %s", got, id)
	}

	// The warm landed on the replica — and only there.
	if _, ok := replica.srv.cached(id); !ok {
		t.Fatal("replica cache cold after warm push")
	}
	if _, ok := outsider.srv.cached(id); ok {
		t.Error("non-replica node received a warm push")
	}
	if v := primary.obs.Metrics().Counter("service_warm", obs.L("result", "ok")).Value(); v != 1 {
		t.Errorf("primary warm ok counter = %v, want 1", v)
	}
	if v := replica.obs.Metrics().Counter("service_warm", obs.L("result", "stored")).Value(); v != 1 {
		t.Errorf("replica warm stored counter = %v, want 1", v)
	}

	// Kill the primary: a request hitting the replica directly is a
	// local hit at its replica slot — no search, no proxy.
	primary.hs.Close()
	resp, replicaBody := postScaleURL(t, replica.url(), reqBody)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("replica after primary death: status %d, X-Cache %q",
			resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if route := resp.Header.Get("X-Cluster-Route"); route != "replica-1" {
		t.Errorf("replica X-Cluster-Route = %q, want replica-1", route)
	}
	if !bytes.Equal(primaryBody, replicaBody) {
		t.Error("replica body differs from the primary's — determinism invariant broken")
	}

	// A non-owner proxies: the primary attempt fails fast, the warmed
	// replica answers from cache.
	resp, outsiderBody := postScaleURL(t, outsider.url(), reqBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("outsider: status %d: %s", resp.StatusCode, outsiderBody)
	}
	if c := resp.Header.Get("X-Cache"); c != "remote" {
		t.Errorf("outsider X-Cache = %q, want remote", c)
	}
	if oc := resp.Header.Get("X-Cache-Origin"); oc != "hit" {
		t.Errorf("outsider X-Cache-Origin = %q, want hit (failover without recompute)", oc)
	}
	if route := resp.Header.Get("X-Cluster-Route"); route != "replica-1" {
		t.Errorf("outsider X-Cluster-Route = %q, want replica-1", route)
	}
	if !bytes.Equal(primaryBody, outsiderBody) {
		t.Error("failover body differs from the primary's")
	}
}

// A fault-injected decision is not pushed to the replicas: its
// fingerprint covers the fault spec and retries, which the body does
// not carry, so every replica would reject the push as a mismatch.
func TestFaultedDecisionNotWarmed(t *testing.T) {
	warmed := make(chan string, 8)
	nodes := startClusterCfg(t, 2, func(i int, cfg *Config) {
		cfg.Replication = 2
	})
	nodes[0].srv.testWarmed = func(id string) { warmed <- id }
	post := func(body string) string {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, nodes[0].url()+"/v1/scale", strings.NewReader(body))
		// Forwarded requests are answered locally, so node 0 computes.
		req.Header.Set(headerForwarded, "test")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
			t.Fatalf("status %d, X-Cache %q: %s", resp.StatusCode, resp.Header.Get("X-Cache"), b)
		}
		return resp.Header.Get("X-Decision-Id")
	}
	post(`{"benchmark":"veccombine","toq":0.9,"faults":"write:0.05","fault_seed":3}`)
	clean := post(`{"benchmark":"veccombine","toq":0.9}`)
	if got := <-warmed; got != clean {
		t.Fatalf("warmed %s first, want only the clean decision %s", got, clean)
	}
	if v := nodes[0].obs.Metrics().Counter("service_warm", obs.L("result", "sent")).Value(); v != 1 {
		t.Errorf("warm pushes sent = %v, want 1 (the clean decision only)", v)
	}
	if v := nodes[1].obs.Metrics().Counter("service_warm", obs.L("result", "mismatch")).Value(); v != 0 {
		t.Errorf("replica rejected %v warm pushes as mismatches", v)
	}
}

// A replica that misses routes to the owners ahead of it instead of
// computing — fleet-wide, one fingerprint still means one search.
func TestReplicaProxiesMissToPrimary(t *testing.T) {
	nodes := startClusterCfg(t, 3, func(i int, cfg *Config) {
		cfg.Replication = 2
	})
	byAddr := map[string]*clusterNode{}
	for _, n := range nodes {
		byAddr[n.addr] = n
	}
	reqBody := `{"benchmark":"veccombine","toq":0.7}`
	id := fingerprintFor(t, nodes[0], reqBody)
	owners := nodes[0].srv.view.Ring().OwnerN(id, 2)
	primary, replica := byAddr[owners[0]], byAddr[owners[1]]

	resp, _ := postScaleURL(t, replica.url(), reqBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replica: status %d", resp.StatusCode)
	}
	if c := resp.Header.Get("X-Cache"); c != "remote" {
		t.Errorf("replica miss X-Cache = %q, want remote (proxied to primary)", c)
	}
	if oc := resp.Header.Get("X-Cache-Origin"); oc != "miss" {
		t.Errorf("X-Cache-Origin = %q, want miss (primary computed)", oc)
	}
	if route := resp.Header.Get("X-Cluster-Route"); route != "primary" {
		t.Errorf("X-Cluster-Route = %q, want primary (slot that answered)", route)
	}
	if _, ok := primary.srv.cached(id); !ok {
		t.Error("primary did not cache its own compute")
	}
}

// The warm endpoint verifies the fingerprint before storing: a body
// pushed under the wrong id is rejected, so a buggy or malicious peer
// cannot poison the cache.
func TestWarmEndpointVerifiesFingerprint(t *testing.T) {
	nodes := startCluster(t, 2)
	reqBody := `{"benchmark":"veccombine","toq":0.9}`
	id := fingerprintFor(t, nodes[0], reqBody)

	// Compute a real decision body on node 0.
	resp, body := postScaleURL(t, nodes[0].url(), reqBody)
	if resp.StatusCode != http.StatusOK {
		// Node 0 may have proxied; either way we hold the canonical body.
		t.Fatalf("scale: status %d", resp.StatusCode)
	}

	warm := func(target *clusterNode, underID string, b []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(target.url()+"/v1/decisions/"+underID+"/warm",
			"application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	// Correct id: stored.
	if resp := warm(nodes[1], id, body); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("valid warm: status %d, want 204", resp.StatusCode)
	}
	if _, ok := nodes[1].srv.cached(id); !ok {
		t.Fatal("valid warm not stored")
	}

	// Wrong id: rejected, not stored.
	wrong := "00000000000000ff"
	if resp := warm(nodes[1], wrong, body); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched warm: status %d, want 400", resp.StatusCode)
	}
	if _, ok := nodes[1].srv.cached(wrong); ok {
		t.Error("mismatched warm poisoned the cache")
	}
	if v := nodes[1].obs.Metrics().Counter("service_warm", obs.L("result", "mismatch")).Value(); v != 1 {
		t.Errorf("mismatch counter = %v, want 1", v)
	}

	// Garbage body: bad request.
	if resp := warm(nodes[1], id, []byte("{not json")); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage warm: status %d, want 400", resp.StatusCode)
	}
}

// A server restarted over the same persist dir serves its pre-crash hot
// set as cache hits without re-searching.
func TestWarmRestartFromJournal(t *testing.T) {
	dir := t.TempDir()
	mk := func() (*Server, *obs.Observer) {
		t.Helper()
		o := obs.New()
		srv, err := New(Config{
			Workers:    2,
			Obs:        o,
			Workload:   testWorkloads,
			PersistDir: dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		return srv, o
	}

	srv1, _ := mk()
	req, err := http.NewRequest("POST", "/v1/scale", strings.NewReader(`{"benchmark":"veccombine","toq":0.9}`))
	if err != nil {
		t.Fatal(err)
	}
	rr := httptest.NewRecorder()
	srv1.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusOK || rr.Header().Get("X-Cache") != "miss" {
		t.Fatalf("first compute: status %d, X-Cache %q: %s", rr.Code, rr.Header().Get("X-Cache"), rr.Body.String())
	}
	firstBody := rr.Body.String()
	id := rr.Header().Get("X-Decision-Id")
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart over the same dir: the decision replays into the LRU.
	srv2, o2 := mk()
	defer srv2.Close()
	if v := o2.Metrics().Counter("service_persist", obs.L("event", "replayed")).Value(); v < 1 {
		t.Fatalf("replayed counter = %v, want >= 1", v)
	}
	req2, err := http.NewRequest("POST", "/v1/scale", strings.NewReader(`{"benchmark":"veccombine","toq":0.9}`))
	if err != nil {
		t.Fatal(err)
	}
	rr2 := httptest.NewRecorder()
	srv2.Handler().ServeHTTP(rr2, req2)
	if rr2.Code != http.StatusOK {
		t.Fatalf("post-restart: status %d: %s", rr2.Code, rr2.Body.String())
	}
	if c := rr2.Header().Get("X-Cache"); c != "hit" {
		t.Errorf("post-restart X-Cache = %q, want hit (served from journal)", c)
	}
	if rr2.Header().Get("X-Decision-Id") != id {
		t.Errorf("post-restart id = %q, want %q", rr2.Header().Get("X-Decision-Id"), id)
	}
	if rr2.Body.String() != firstBody {
		t.Error("post-restart body differs from the pre-crash body")
	}
}

// A probe-detected death advances the membership epoch, shrinks the
// effective ring, and opens the peer's dial gate; recovery reverses all
// three. Driven through the probe path (the same observe the probe loop
// calls), and healthz must show the verdict, the gate and the live set
// agreeing after each flip.
func TestPeerChangeUpdatesViewAndBreaker(t *testing.T) {
	nodes := startCluster(t, 3)
	srv := nodes[0].srv
	peer := nodes[1].addr
	h := srv.peers[peer]
	if srv.view.Epoch() != 1 {
		t.Fatalf("initial epoch = %d", srv.view.Epoch())
	}

	h.observe(false)
	if e := srv.view.Epoch(); e != 1 {
		t.Fatalf("one failed probe moved the epoch to %d", e)
	}
	h.observe(false)
	if e := srv.view.Epoch(); e != 2 {
		t.Errorf("epoch after death = %d, want 2", e)
	}
	if srv.view.Alive(peer) {
		t.Error("dead peer still in the live set")
	}
	if srv.view.Ring().Contains(peer) {
		t.Error("dead peer still on the effective ring")
	}
	if st := gateOf(h); st != gateOpen {
		t.Errorf("gate after probe-down = %v, want open", st)
	}
	if g := nodes[0].obs.Metrics().Gauge("service_cluster_epoch").Value(); g != 2 {
		t.Errorf("service_cluster_epoch = %v, want 2", g)
	}
	if g := nodes[0].obs.Metrics().Gauge("service_breaker_state", obs.L("peer", peer)).Value(); g != 2 {
		t.Errorf("service_breaker_state = %v, want 2", g)
	}
	checkPeerHealthz(t, nodes[0], peer, false, "open")

	h.observe(true)
	h.observe(true)
	if e := srv.view.Epoch(); e != 3 {
		t.Errorf("epoch after recovery = %d, want 3", e)
	}
	if !srv.view.Ring().Contains(peer) {
		t.Error("recovered peer missing from the effective ring")
	}
	if st := gateOf(h); st != gateClosed {
		t.Errorf("gate after probe-up = %v, want closed", st)
	}
	checkPeerHealthz(t, nodes[0], peer, true, "closed")
}

// checkPeerHealthz requires node's GET /v1/healthz to report peer with
// the given verdict and gate, and to list it in live exactly when up.
func checkPeerHealthz(t *testing.T, node *clusterNode, peer string, up bool, gate string) {
	t.Helper()
	resp, err := http.Get(node.url() + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Cluster struct {
			Live  []string `json:"live"`
			Peers map[string]struct {
				Up      bool   `json:"up"`
				Breaker string `json:"breaker"`
			} `json:"peers"`
		} `json:"cluster"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	got := doc.Cluster.Peers[peer]
	if got.Up != up || got.Breaker != gate {
		t.Errorf("healthz peers[%s] = %+v, want {Up:%v Breaker:%s}", peer, got, up, gate)
	}
	if slices.Contains(doc.Cluster.Live, peer) != up {
		t.Errorf("healthz live = %v disagrees with up=%v for %s", doc.Cluster.Live, up, peer)
	}
}
