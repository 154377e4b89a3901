package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/api/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/prog"
	"repro/internal/service"
)

// fleetBenches make the service-fleet hot set: GEMM and SYR2K, which
// Fig. 4 finds mixed in character, and the compute-bound SYRK and 3MM.
var fleetBenches = []string{"GEMM", "SYR2K", "SYRK", "3MM"}

const (
	// fleetClients is the closed loop's caller count. With one caller
	// nothing else runs in the process while a request is out, so the
	// process CPU time from sending it to its answer is that request's
	// own: client, both nodes' handlers and the proxy hop.
	fleetClients = 1
	// missesPerBlock warm misses join a block's 48 hot requests (about 9%
	// of the stream).
	missesPerBlock = 5
	// minBlocks gives a time-bounded phase at least 1000 local hits (ten
	// beyond the p99) and 200 warm misses (ten beyond the p90).
	minBlocks = 42
	// fixedBlocks is a traced-mode phase: the same work untraced and
	// traced, so the seed alone fixes every count.
	fixedBlocks = 42
)

// node is one in-process prescalerd on a loopback listener.
type node struct {
	addr string
	srv  *service.Server
	hs   *http.Server
	done chan struct{} // closed when Serve has returned
	cl   *client.Client
}

// hotEntry is one hot-set decision: its request, its id, the node that
// owns it, and the body every later answer for it must equal.
type hotEntry struct {
	c     combo
	req   []byte
	id    string
	owner int
	body  []byte
}

// fleetReq is one request of the stream: a hot entry sent to node
// target, or (hot nil) a warm miss fingerprinted at node target and
// then sent to its owner.
type fleetReq struct {
	hot    *hotEntry
	target int
	miss   combo
}

// missResult is one answered warm miss.
type missResult struct {
	c    combo
	id   string
	body []byte
}

// fleetWorkload is service-fleet: two service.New nodes in this process
// and two clients in a closed loop through internal/api/client.
type fleetWorkload struct {
	b     *bench
	hc    *http.Client
	nodes []*node
	ring  *cluster.Ring
	hot   []*hotEntry
	pairs []combo // the hot (benchmark, system) pairs, TOQ unset

	fws       map[string]*core.Framework
	caches    map[combo]*prog.EvalCache // per pair, as the service keeps them
	missSeq   int
	missOrder []int
}

// fleetCombos is the hot set: every fleet benchmark on every system at
// both TOQs, default input set.
func fleetCombos() []combo {
	var out []combo
	for _, b := range fleetBenches {
		for _, s := range systems {
			for _, q := range toqs {
				out = append(out, combo{b, s, q, prog.InputDefault})
			}
		}
	}
	return out
}

// pairOf is c's (benchmark, system, input set) with the TOQ cleared: the
// key of the service's shared EvalCache.
func pairOf(c combo) combo { return combo{bench: c.bench, system: c.system, set: c.set} }

func (f *fleetWorkload) setup(ctx context.Context) error {
	f.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * fleetClients}}
	lns := make([]net.Listener, 2)
	addrs := make([]string, len(lns))
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeListeners(lns[:i])
			return err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	for i, ln := range lns {
		// Apart from Self and Peers every field keeps its zero value;
		// Replication 1 is pure sharding, so a non-owner really proxies.
		srv, err := service.New(service.Config{Self: addrs[i], Peers: []string{addrs[1-i]}})
		if err != nil {
			closeListeners(lns[i:])
			return err
		}
		n := &node{addr: addrs[i], srv: srv, hs: &http.Server{Handler: srv.Handler()},
			done: make(chan struct{}), cl: &client.Client{Targets: []string{addrs[i]}, HTTPClient: f.hc}}
		go func() {
			defer close(n.done)
			n.hs.Serve(ln) // returns http.ErrServerClosed once close shuts it down
		}()
		f.nodes = append(f.nodes, n)
	}
	ring, err := cluster.New(addrs, 0)
	if err != nil {
		return err
	}
	f.ring = ring
	for _, n := range f.nodes {
		if err := waitHealthy(ctx, n.cl); err != nil {
			return err
		}
	}
	seen := map[combo]bool{}
	for _, c := range fleetCombos() {
		h, err := f.search(ctx, c)
		if err != nil {
			return err
		}
		f.hot = append(f.hot, h)
		if p := pairOf(c); !seen[p] {
			seen[p] = true
			f.pairs = append(f.pairs, p)
		}
	}
	// One untimed warm-up decision, as in the search workloads.
	_, err = f.search(ctx, combo{fleetBenches[0], systems[0], 0.905, prog.InputDefault})
	return err
}

func closeListeners(lns []net.Listener) {
	for _, ln := range lns {
		ln.Close()
	}
}

// waitHealthy polls a node's /v1/healthz until it answers "ok".
func waitHealthy(ctx context.Context, cl *client.Client) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		h, err := cl.Health(ctx)
		if err == nil && h["status"] == "ok" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("node %s not healthy: %v", cl.Targets[0], err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// search fingerprints c, sends it to its owner and requires the owner to
// run the search (X-Cache: miss).
func (f *fleetWorkload) search(ctx context.Context, c combo) (*hotEntry, error) {
	req, err := json.Marshal(c.request())
	if err != nil {
		return nil, err
	}
	id, _, err := f.nodes[0].cl.Fingerprint(ctx, c.request())
	if err != nil {
		return nil, fmt.Errorf("%v: fingerprint: %w", c, err)
	}
	owner := f.owner(id)
	body, meta, err := f.nodes[owner].cl.ScaleRaw(ctx, req)
	if err != nil {
		return nil, fmt.Errorf("%v: %w", c, err)
	}
	if meta.Status != http.StatusOK || meta.Cache != "miss" || meta.DecisionID != id {
		return nil, fmt.Errorf("%v: set-up search answered %d, X-Cache %q, id %q; want 200, miss, %s",
			c, meta.Status, meta.Cache, meta.DecisionID, id)
	}
	return &hotEntry{c: c, req: req, id: id, owner: owner, body: body}, nil
}

// owner maps a decision id to its owner node, as every node computes it:
// cluster.New over both addresses.
func (f *fleetWorkload) owner(id string) int {
	addr := f.ring.Owner(id)
	for i, n := range f.nodes {
		if n.addr == addr {
			return i
		}
	}
	return 0 // unreachable: the ring holds exactly the nodes' addresses
}

func (f *fleetWorkload) close() {
	for _, n := range f.nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := n.hs.Shutdown(ctx); err != nil {
			n.hs.Close()
		}
		cancel()
		<-n.done
		n.srv.Close() // no journal is configured, so there is nothing to flush
	}
	f.nodes = nil
	if f.hc != nil {
		f.hc.CloseIdleConnections()
	}
}

// verifySetup requires every hot-set body to equal the canonical encoding
// of an in-process Framework.Scale of the same request. These searches
// share one EvalCache per (system, benchmark) pair, as the service does;
// the layer probes reuse the primed caches.
func (f *fleetWorkload) verifySetup(ctx context.Context) {
	fws, err := frameworks()
	if err != nil {
		f.b.count(err)
		return
	}
	f.fws, f.caches = fws, map[combo]*prog.EvalCache{}
	for _, h := range f.hot {
		d, err := scaleOnce(ctx, f.fws[h.c.system], h.c, f.cache(h.c), nil)
		if err == nil && !bytes.Equal(d.body, h.body) {
			err = fmt.Errorf("%v: fleet body differs from an in-process Framework.Scale", h.c)
		}
		f.b.count(err)
	}
}

// cache is the in-process EvalCache of c's pair.
func (f *fleetWorkload) cache(c combo) *prog.EvalCache {
	p := pairOf(c)
	if f.caches[p] == nil {
		f.caches[p] = prog.NewEvalCache()
	}
	return f.caches[p]
}

// dispatcher hands the request stream to the clients one request at a
// time. The stream is a sequence of blocks; each holds every hot entry
// twice — once for its owner, once for the other node, so local and
// proxied hits split exactly in half whatever ports the ring hashed —
// plus missesPerBlock warm misses, shuffled by the seed. It stops only
// at a block boundary, so a phase serves whole blocks.
type dispatcher struct {
	f      *fleetWorkload
	stop   func(blocks int) bool
	mu     sync.Mutex
	block  []fleetReq
	blocks int
}

func (d *dispatcher) next() (fleetReq, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.block) == 0 {
		if d.stop(d.blocks) {
			return fleetReq{}, false
		}
		d.block = d.f.newBlock()
		d.blocks++
	}
	q := d.block[0]
	d.block = d.block[1:]
	return q, true
}

// newBlock draws the next block of the stream.
func (f *fleetWorkload) newBlock() []fleetReq {
	reqs := make([]fleetReq, 0, 2*len(f.hot)+missesPerBlock)
	for _, h := range f.hot {
		reqs = append(reqs, fleetReq{hot: h, target: h.owner}, fleetReq{hot: h, target: 1 - h.owner})
	}
	for i := 0; i < missesPerBlock; i++ {
		if len(f.missOrder) == 0 {
			f.missOrder = f.b.rng.Perm(len(f.pairs))
		}
		c := f.pairs[f.missOrder[0]]
		f.missOrder = f.missOrder[1:]
		f.missSeq++
		// A fresh TOQ gives every miss its own fingerprint, so no two
		// coalesce, on a hot pair whose EvalCache replays most ops.
		c.toq = 0.91 + float64(f.missSeq)*1e-6
		reqs = append(reqs, fleetReq{target: f.missSeq % 2, miss: c})
	}
	f.b.rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

// fleetTally is one client's share of a phase, merged once the clients
// stop.
type fleetTally struct {
	attempted, ok          int
	errs                   []error
	hit, proxied, decision []float64
	decisionCPU            []float64
	misses                 []missResult
	counts                 map[string]int
}

// phase runs the closed loop: fleetClients callers take requests from
// one dispatcher until it stops at a block boundary.
func (f *fleetWorkload) phase(ctx context.Context, tr *tracer, fixed bool) (*phase, error) {
	start, cpuStart := time.Now(), cpuTime()
	d := &dispatcher{f: f, stop: func(blocks int) bool {
		if fixed {
			return blocks >= fixedBlocks
		}
		return blocks >= minBlocks && time.Since(start) >= f.b.seconds
	}}
	tallies := make([]*fleetTally, fleetClients)
	var wg sync.WaitGroup
	for i := range tallies {
		t := &fleetTally{counts: map[string]int{}}
		tallies[i] = t
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				q, ok := d.next()
				if !ok {
					return
				}
				t.attempted++
				if err := f.do(ctx, q, t, tr); err != nil {
					t.errs = append(t.errs, err)
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p := &phase{wall: time.Since(start), cpu: cpuTime() - cpuStart, counts: map[string]int{}}
	for _, t := range tallies {
		f.b.attempted += t.attempted
		for _, err := range t.errs {
			f.b.fail(err)
		}
		p.ops += t.ok
		p.hit = append(p.hit, t.hit...)
		p.proxied = append(p.proxied, t.proxied...)
		p.decision = append(p.decision, t.decision...)
		p.decisionCPU = append(p.decisionCPU, t.decisionCPU...)
		p.misses = append(p.misses, t.misses...)
		for k, v := range t.counts {
			p.counts[k] += v
		}
	}
	sort.Slice(p.misses, func(i, j int) bool { return p.misses[i].c.toq < p.misses[j].c.toq })
	byPair := map[combo][]*api.Decision{}
	for _, mr := range p.misses {
		doc, err := checkMiss(mr)
		if err != nil {
			f.b.fail(err)
			continue
		}
		byPair[pairOf(mr.c)] = append(byPair[pairOf(mr.c)], doc)
	}
	// One value per pair, so the partial last cycle of the seeded pair
	// order does not tilt the mix.
	for _, pr := range f.pairs {
		var sp, trials []float64
		for _, doc := range byPair[pr] {
			sp = append(sp, doc.Search.Speedup)
			trials = append(trials, float64(doc.Search.Trials))
		}
		if len(sp) > 0 {
			p.speedup = append(p.speedup, geomean(sp))
			p.trials = append(p.trials, mean(trials))
		}
	}
	return p, nil
}

// do sends one request and checks the answer: status 200, the decision
// id, the X-Cache state the target node must report, and for hot entries
// the byte-identical body.
func (f *fleetWorkload) do(ctx context.Context, q fleetReq, t *fleetTally, tr *tracer) error {
	req, target, id := []byte(nil), q.target, ""
	trace := tr.id()
	if q.hot != nil {
		req, id = q.hot.req, q.hot.id
	} else {
		var err error
		if req, err = json.Marshal(q.miss.request()); err != nil {
			return err
		}
		// The owner is found untimed, as prescaler -daemon -progress does
		// before it posts: POST /v1/scale?fingerprint=1.
		f0 := time.Now()
		id, _, err = f.nodes[q.target].cl.Fingerprint(ctx, q.miss.request())
		tr.record(tr.id(), "client.fingerprint", trace, 0, f0, time.Now())
		if err != nil {
			return fmt.Errorf("%v: fingerprint: %w", q.miss, err)
		}
		target = f.owner(id)
	}
	t0, c0 := time.Now(), cpuTime()
	body, meta, err := f.nodes[target].cl.ScaleRaw(ctx, req)
	c1, t1 := cpuTime(), time.Now()
	if err != nil {
		return fmt.Errorf("request to node %d: %w", target, err)
	}
	class := meta.Cache
	if meta.Status == http.StatusTooManyRequests {
		class = "shed"
	}
	t.counts[class]++
	if meta.ClusterRoute == "fallback" {
		t.counts["fallback"]++
	}
	tr.record(trace, "fleet."+class, trace, 0, t0, t1)
	switch lat := ms(t1.Sub(t0)); class {
	case "hit":
		t.hit = append(t.hit, lat)
	case "remote":
		t.proxied = append(t.proxied, lat)
	case "miss":
		t.decision = append(t.decision, lat)
		t.decisionCPU = append(t.decisionCPU, ms(c1-c0))
	}
	if meta.Status != http.StatusOK {
		return fmt.Errorf("node %d answered %d: %s", target, meta.Status, bytes.TrimSpace(body))
	}
	if meta.DecisionID != id {
		return fmt.Errorf("node %d answered decision %q, want %q", target, meta.DecisionID, id)
	}
	if q.hot != nil {
		want, origin := "hit", ""
		if target != q.hot.owner {
			want, origin = "remote", "hit"
		}
		if meta.Cache != want || meta.CacheOrigin != origin {
			return fmt.Errorf("%v at node %d: X-Cache %q origin %q, want %q origin %q",
				q.hot.c, target, meta.Cache, meta.CacheOrigin, want, origin)
		}
		if !bytes.Equal(body, q.hot.body) {
			return fmt.Errorf("%v at node %d (%s): body differs from the set-up body", q.hot.c, target, meta.Cache)
		}
	} else {
		if meta.Cache != "miss" {
			return fmt.Errorf("%v at its owner: X-Cache %q, want miss", q.miss, meta.Cache)
		}
		t.misses = append(t.misses, missResult{c: q.miss, id: id, body: body})
	}
	t.ok++
	return nil
}

// checkMiss decodes a warm miss's document and checks that it answers
// the request: benchmark, system, TOQ and input set, with a quality of
// at least the TOQ.
func checkMiss(mr missResult) (*api.Decision, error) {
	var d api.Decision
	if err := json.Unmarshal(mr.body, &d); err != nil {
		return nil, fmt.Errorf("%v: decode: %w", mr.c, err)
	}
	if d.Benchmark != mr.c.bench || d.System != mr.c.system || d.TOQ != mr.c.toq || d.InputSet != mr.c.set.String() {
		return nil, fmt.Errorf("%v: the document answers %s/%s/toq=%g/%s", mr.c, d.Benchmark, d.System, d.TOQ, d.InputSet)
	}
	if d.Search.Quality < d.TOQ {
		return nil, fmt.Errorf("%v: quality %.6f is below the TOQ", mr.c, d.Search.Quality)
	}
	return &d, nil
}

// verify requires the first warm misses of a phase to equal an
// in-process Framework.Scale of the same request, byte for byte; every
// hot answer was already compared with its set-up body.
func (f *fleetWorkload) verify(ctx context.Context, p *phase) {
	if f.fws == nil {
		return // verifySetup already failed
	}
	for _, mr := range p.misses[:min(len(p.misses), 4)] {
		d, err := scaleOnce(ctx, f.fws[mr.c.system], mr.c, f.cache(mr.c), nil)
		if err == nil && !bytes.Equal(d.body, mr.body) {
			err = fmt.Errorf("%v: fleet body differs from an in-process Framework.Scale", mr.c)
		}
		f.b.count(err)
	}
}

func (f *fleetWorkload) layers(ctx context.Context, tr *tracer, untraced, traced *phase, m metrics) {
	if f.fws == nil {
		f.b.count(errors.New("layer probes: set-up verification failed"))
		return
	}
	// The service's warm misses, in process: fresh TOQs on every hot pair
	// against the pair's primed EvalCache, scaler and prog read-mostly.
	var ds []*decision
	for i, p := range f.pairs {
		for k := 0; k < 2; k++ {
			c := p
			c.toq = 0.93 + float64(2*i+k)*1e-6
			d, err := scaleOnce(ctx, f.fws[c.system], c, f.cache(c), tr)
			f.b.count(err)
			if err == nil {
				ds = append(ds, d)
			}
		}
	}
	scalerLayers(m, ds, ds)
	commonLayers(ctx, f.b, tr, f.fws, fleetBenches, firstPerBench(ds), m)
	hit, proxied := quantile(untraced.hit, 0.5), quantile(untraced.proxied, 0.5)
	m.set("hit_p50_ms", hit, "ms")
	m.set("hit_p99_ms", quantile(untraced.hit, 0.99), "ms")
	m.set("proxied_p50_ms", proxied, "ms")
	m.set("service.network_ms", hit-m["service.hit_handler_ms"].Value, "ms")
	m.set("cluster.proxy_hop_ms", proxied-hit, "ms")
	for _, k := range []string{"hit", "remote", "miss", "coalesced", "shed", "fallback"} {
		m.set("service."+k+"_count", float64(traced.counts[k]), "count")
	}
}
