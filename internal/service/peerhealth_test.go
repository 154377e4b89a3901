package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// The TestBreaker* tests pin the dial gate's transitions and the
// TestProber* tests the probe verdict's, both on one peerHealth.

// testPeer builds a peer health with a controllable clock and zero
// jitter, so gate transitions are exact. onFlip may be nil.
func testPeer(t *testing.T, m *obs.Registry, addr string, onFlip func(string, bool)) (*peerHealth, *time.Time) {
	t.Helper()
	now := time.Unix(1000, 0)
	h := newPeerHealth(addr, m, onFlip)
	h.now = func() time.Time { return now }
	h.jitter = func() float64 { return 0 }
	return h, &now
}

// gateOf reads the gate position under the peer's lock.
func gateOf(h *peerHealth) gateState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.gate
}

// upOf reads the probe verdict under the peer's lock.
func upOf(h *peerHealth) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.up
}

// allowed reports whether the gate admits a dial right now.
func allowed(h *peerHealth) bool {
	ok, _ := h.allow()
	return ok
}

// trip fails gateThreshold closed-gate dials in a row.
func trip(h *peerHealth) {
	for i := 0; i < gateThreshold; i++ {
		h.report(dialFailed, 0)
	}
}

func TestBreakerOpensAfterThreshold(t *testing.T) {
	o := obs.New()
	h, _ := testPeer(t, o.Metrics(), "p:1", nil)
	for i := 0; i < gateThreshold-1; i++ {
		h.report(dialFailed, 0)
		if !allowed(h) {
			t.Fatalf("gate refused after %d failures, threshold is %d", i+1, gateThreshold)
		}
		if got := gateOf(h); got != gateClosed {
			t.Fatalf("gate after %d failures = %v, want closed", i+1, got)
		}
	}
	h.report(dialFailed, 0)
	if got := gateOf(h); got != gateOpen {
		t.Fatalf("gate after threshold failures = %v, want open", got)
	}
	if g := o.Metrics().Gauge("service_breaker_state", obs.L("peer", "p:1")).Value(); g != 2 {
		t.Errorf("service_breaker_state = %v, want 2 (open)", g)
	}
	if allowed(h) {
		t.Error("open gate allowed a dial before backoff elapsed")
	}
	if !upOf(h) {
		t.Error("dial failures changed the probe verdict")
	}
}

func TestBreakerSuccessResetsFailureCount(t *testing.T) {
	h, _ := testPeer(t, obs.New().Metrics(), "p:1", nil)
	h.report(dialFailed, 0)
	h.report(dialFailed, 0)
	h.report(dialAnswered, 0)
	h.report(dialFailed, 0)
	h.report(dialFailed, 0)
	if got := gateOf(h); got != gateClosed {
		t.Fatalf("gate = %v, want closed (an answer reset the count)", got)
	}
}

func TestBreakerHalfOpenTrial(t *testing.T) {
	o := obs.New()
	h, now := testPeer(t, o.Metrics(), "p:1", nil)
	trip(h)
	// Backoff not yet elapsed: refused.
	if allowed(h) {
		t.Fatal("allowed before backoff")
	}
	*now = now.Add(gateBackoff)
	// Backoff elapsed: exactly one trial admitted.
	ok, trial := h.allow()
	if !ok || trial == 0 {
		t.Fatalf("allow after backoff = (%v, %v), want the trial", ok, trial)
	}
	if got := gateOf(h); got != gateHalfOpen {
		t.Fatalf("gate = %v, want half-open", got)
	}
	if g := o.Metrics().Gauge("service_breaker_state", obs.L("peer", "p:1")).Value(); g != 1 {
		t.Errorf("service_breaker_state = %v, want 1 (half-open)", g)
	}
	if allowed(h) {
		t.Error("second concurrent trial admitted while one is in flight")
	}
	// Trial answered: closed, backoff reset.
	h.report(dialAnswered, trial)
	if got := gateOf(h); got != gateClosed {
		t.Fatalf("gate after trial answer = %v, want closed", got)
	}
	if h.backoff != gateBackoff {
		t.Errorf("backoff = %v, want reset to %v", h.backoff, gateBackoff)
	}
}

func TestBreakerHalfOpenFailureDoublesBackoff(t *testing.T) {
	h, now := testPeer(t, obs.New().Metrics(), "p:1", nil)
	trip(h)
	backoff := gateBackoff
	for round := 0; round < 10; round++ {
		*now = now.Add(backoff)
		ok, trial := h.allow()
		if !ok || trial == 0 {
			t.Fatalf("round %d: trial refused after %v backoff", round, backoff)
		}
		h.report(dialFailed, trial)
		if got := gateOf(h); got != gateOpen {
			t.Fatalf("round %d: gate = %v, want re-opened", round, got)
		}
		backoff = min(2*backoff, gateMaxBackoff)
		if h.backoff != backoff {
			t.Fatalf("round %d: backoff = %v, want %v", round, h.backoff, backoff)
		}
	}
	if h.backoff != gateMaxBackoff {
		t.Errorf("backoff never capped: %v", h.backoff)
	}
}

// A probe-down flip opens the gate and a probe-up flip closes it, in
// the same step that moves the verdict; re-opening an already open gate
// keeps its half-open deadline.
func TestBreakerForceTransitions(t *testing.T) {
	h, now := testPeer(t, obs.New().Metrics(), "p:1", nil)
	h.observe(false)
	h.observe(false)
	if got := gateOf(h); got != gateOpen || upOf(h) {
		t.Fatalf("after probe-down: gate %v, up %v; want open, false", got, upOf(h))
	}
	if allowed(h) {
		t.Error("probe-down gate allowed a dial")
	}
	h.observe(true)
	h.observe(true)
	if got := gateOf(h); got != gateClosed || !upOf(h) {
		t.Fatalf("after probe-up: gate %v, up %v; want closed, true", got, upOf(h))
	}
	if !allowed(h) {
		t.Error("probe-up gate refused a dial")
	}
	// Dial failures open the gate first; a later probe-down must not
	// push the half-open deadline.
	trip(h)
	until := h.until
	*now = now.Add(100 * time.Millisecond)
	h.observe(false)
	h.observe(false)
	if upOf(h) {
		t.Fatal("verdict still up after fall-threshold failures")
	}
	if h.until != until {
		t.Error("probe-down on an open gate pushed the half-open deadline")
	}
	// A half-open gate is re-opened by probe-down too.
	h.observe(true)
	h.observe(true)
	trip(h)
	*now = now.Add(gateBackoff)
	if ok, trial := h.allow(); !ok || trial == 0 {
		t.Fatal("no trial after backoff")
	}
	h.observe(false)
	h.observe(false)
	if got := gateOf(h); got != gateOpen {
		t.Errorf("probe-down on a half-open gate left it %v, want open", got)
	}
}

// A trial whose own caller left says nothing about the peer: it hands
// the slot back, and the next dial is admitted as the new trial.
func TestGateAbandonedTrialReleasesSlot(t *testing.T) {
	h, now := testPeer(t, obs.New().Metrics(), "p:1", nil)
	trip(h)
	*now = now.Add(gateBackoff)
	ok, trial := h.allow()
	if !ok || trial == 0 {
		t.Fatal("no trial after backoff")
	}
	h.report(dialAbandoned, trial)
	if got := gateOf(h); got != gateHalfOpen {
		t.Errorf("gate after abandoned trial = %v, want half-open (no verdict)", got)
	}
	if h.backoff != gateBackoff {
		t.Errorf("abandoned trial doubled the backoff to %v", h.backoff)
	}
	*now = now.Add(time.Hour)
	first := trial
	ok, trial = h.allow()
	if !ok || trial == 0 {
		t.Fatalf("dial after an abandoned trial = (%v, %v), want the next trial", ok, trial)
	}
	// Neither a dial that was not the trial nor the earlier, already
	// ended trial frees the slot of the trial in flight.
	h.report(dialAbandoned, 0)
	h.report(dialAbandoned, first)
	if allowed(h) {
		t.Error("another dial's abandon released the trial in flight")
	}
	h.report(dialAnswered, trial)
	if got := gateOf(h); got != gateClosed {
		t.Errorf("gate after trial answer = %v, want closed", got)
	}
}

// Dials, probes and healthz reads from many goroutines at once leave
// the gauges mirroring the state, and a trial ticket only on a
// half-open gate. A round in which the scheduler never lets a dial see
// an open gate admits no trial and proves nothing about tickets, so
// rounds repeat, each checked in full, until one admits a trial.
func TestPeerHealthConcurrent(t *testing.T) {
	for round := 0; round < 50 && !t.Failed(); round++ {
		if concurrentRound(t) > 0 {
			return
		}
	}
	if !t.Failed() {
		t.Error("no half-open trial was admitted; the test exercised nothing")
	}
}

// concurrentRound runs one round of TestPeerHealthConcurrent on a fresh
// peer and returns the number of trial tickets it issued.
func concurrentRound(t *testing.T) uint64 {
	o := obs.New()
	h := newPeerHealth("p:1", o.Metrics(), nil)
	// Every read moves the clock past the longest jittered backoff, so
	// the first dial to find the gate open is admitted as its trial.
	var clock atomic.Int64
	h.now = func() time.Time { return time.Unix(0, clock.Add(int64(gateMaxBackoff*5/4+time.Millisecond))) }
	const n = 3000
	var probing atomic.Bool
	probing.Store(true)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Dial until the probes are done as well, so dials overlap
			// the down flips that open the gate.
			for i := 0; i < n || probing.Load(); i++ {
				if ok, trial := h.allow(); ok {
					h.report(dialResult((g+i)%3), trial)
				}
				h.mu.Lock()
				stray := h.trial != 0 && h.gate != gateHalfOpen
				h.mu.Unlock()
				if stray {
					t.Error("a trial ticket outlived the half-open gate")
					return
				}
			}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer probing.Store(false)
		for i := 0; i < n; i++ {
			h.observe(i%5 < 3) // runs of three up, two down: flips both ways
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			h.entry()
		}
	}()
	wg.Wait()

	m := o.Metrics()
	if g := m.Gauge("service_breaker_state", obs.L("peer", "p:1")).Value(); g != float64(gateOf(h)) {
		t.Errorf("service_breaker_state = %v, gate is %v", g, gateOf(h))
	}
	up := 0.0
	if upOf(h) {
		up = 1
	}
	if g := m.Gauge("service_peer_up", obs.L("peer", "p:1")).Value(); g != up {
		t.Errorf("service_peer_up = %v, verdict up is %v", g, upOf(h))
	}
	if ok, fail := m.Counter("service_probe", obs.L("result", "ok")).Value(),
		m.Counter("service_probe", obs.L("result", "fail")).Value(); ok != 3*n/5 || fail != 2*n/5 {
		t.Errorf("probe counts ok=%v fail=%v, want %v and %v", ok, fail, 3*n/5, 2*n/5)
	}
	return h.tickets
}

func TestProberFallThenRise(t *testing.T) {
	var flips []string
	o := obs.New()
	h, _ := testPeer(t, o.Metrics(), "a:1", func(peer string, up bool) {
		if up {
			flips = append(flips, peer+"=up")
		} else {
			flips = append(flips, peer+"=down")
		}
	})
	if !upOf(h) {
		t.Fatal("peer must start optimistically up")
	}
	// One failure is a blip, not a verdict (fall threshold 2).
	h.observe(false)
	if !upOf(h) || len(flips) != 0 || gateOf(h) != gateClosed {
		t.Fatalf("a single failure moved the peer: up=%v flips=%v gate=%v", upOf(h), flips, gateOf(h))
	}
	// Second consecutive failure flips down.
	h.observe(false)
	if upOf(h) {
		t.Fatal("peer still up after fall-threshold failures")
	}
	if len(flips) != 1 || flips[0] != "a:1=down" {
		t.Fatalf("flips = %v, want [a:1=down]", flips)
	}
	if g := o.Metrics().Gauge("service_peer_up", obs.L("peer", "a:1")).Value(); g != 0 {
		t.Errorf("service_peer_up = %v, want 0", g)
	}
	// One success is not recovery (rise threshold 2)...
	h.observe(true)
	if upOf(h) || gateOf(h) != gateOpen {
		t.Fatalf("a single success moved the peer: up=%v gate=%v", upOf(h), gateOf(h))
	}
	// ...two consecutive successes are.
	h.observe(true)
	if !upOf(h) {
		t.Fatal("peer still down after rise-threshold successes")
	}
	if len(flips) != 2 || flips[1] != "a:1=up" {
		t.Fatalf("flips = %v, want [a:1=down a:1=up]", flips)
	}
	if g := o.Metrics().Gauge("service_peer_up", obs.L("peer", "a:1")).Value(); g != 1 {
		t.Errorf("service_peer_up = %v, want 1", g)
	}
}

// Alternating outcomes never accumulate a run, so a flapping peer stays
// at its last verdict instead of churning the ring epoch.
func TestProberFlappingPeerHoldsVerdict(t *testing.T) {
	flips := 0
	h, _ := testPeer(t, obs.New().Metrics(), "a:1", func(string, bool) { flips++ })
	for i := 0; i < 20; i++ {
		h.observe(i%2 == 0)
	}
	if flips != 0 {
		t.Errorf("alternating outcomes caused %d verdict flips, want 0", flips)
	}
	if !upOf(h) || gateOf(h) != gateClosed {
		t.Errorf("flapping peer lost its verdict: up=%v gate=%v", upOf(h), gateOf(h))
	}
}

func TestProberCountsOutcomes(t *testing.T) {
	o := obs.New()
	a, _ := testPeer(t, o.Metrics(), "a:1", nil)
	b, _ := testPeer(t, o.Metrics(), "b:1", nil)
	a.observe(true)
	b.observe(false)
	b.observe(false)
	m := o.Metrics()
	if v := m.Counter("service_probe", obs.L("result", "ok")).Value(); v != 1 {
		t.Errorf("ok count = %v, want 1", v)
	}
	if v := m.Counter("service_probe", obs.L("result", "fail")).Value(); v != 2 {
		t.Errorf("fail count = %v, want 2", v)
	}
	// b flipped down, a untouched; verdicts are per peer.
	if !upOf(a) || upOf(b) {
		t.Errorf("verdicts leaked across peers: a=%v b=%v", upOf(a), upOf(b))
	}
	if gateOf(a) != gateClosed || gateOf(b) != gateOpen {
		t.Errorf("gates leaked across peers: a=%v b=%v", gateOf(a), gateOf(b))
	}
}

// Probe loops with an injected probe function must start, fire probes
// on their jittered schedule, and stop cleanly even when every probe
// fails.
func TestProberStartStop(t *testing.T) {
	probed := make(chan string, 64)
	h := newPeerHealth("a:1", obs.New().Metrics(), nil)
	stop := startProbes(map[string]*peerHealth{"a:1": h}, 1, // ~1ns interval: probe immediately
		func(_ context.Context, peer string) error {
			select {
			case probed <- peer:
			default:
			}
			return errors.New("down")
		})
	<-probed // at least one probe fired
	stop()   // must join without deadlock
}
