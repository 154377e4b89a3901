package service

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
)

// Peer health tuning. The probe fall threshold is deliberately low — a
// dead peer should leave the effective ring within roughly one probe
// interval (the chaos-test acceptance bar) — while the rise threshold
// demands two consecutive healthy answers so a flapping peer doesn't
// churn the ring epoch on every blip. The gate costs a dead peer
// gateThreshold fast connection failures before every later dial skips
// it, and re-admits a recovered peer within a couple of seconds.
const (
	defaultProbeInterval = 2 * time.Second
	probeRise            = 2
	probeFall            = 2
	gateThreshold        = 3
	gateBackoff          = 500 * time.Millisecond
	gateMaxBackoff       = 30 * time.Second
)

// gateState is the dial gate's circuit-breaker position; the values are
// those of the service_breaker_state{peer} gauge.
type gateState int

const (
	gateClosed   gateState = iota // healthy: dials flow
	gateHalfOpen                  // backoff elapsed: one trial dial probes the peer
	gateOpen                      // peer considered down: dials skip it instantly
)

func (g gateState) String() string {
	switch g {
	case gateClosed:
		return "closed"
	case gateHalfOpen:
		return "half-open"
	default:
		return "open"
	}
}

// dialResult is what one admitted dial (a proxied request or a warm
// push) learned about the peer.
type dialResult int

const (
	dialAnswered  dialResult = iota // any HTTP answer, even a 5xx: the peer is alive
	dialFailed                      // transport error or attempt timeout
	dialAbandoned                   // our own caller left first, or nothing was sent: no verdict
)

// peerHealth is everything a node knows about one peer, behind one
// mutex: the probe verdict, the dial gate guarding the proxy and warm
// paths, both gauges, and the peer's healthz entry.
//
// The verdict comes from probes alone: probeFall consecutive failures
// turn it down, probeRise consecutive successes turn it up, so an
// alternating peer keeps its verdict. The gate is a circuit breaker
// fed by dial outcomes: closed, gateThreshold consecutive failures trip
// it open; open, it refuses until a jittered backoff elapses, then
// admits exactly one half-open trial. The trial's report closes the
// gate (answered), re-opens it with the backoff doubled up to
// gateMaxBackoff (failed), or hands the trial slot back (abandoned). A
// verdict flip moves the gate in the same critical section — down opens
// it, up closes it — so a node that never dialed a dead peer still
// skips it, and healthz never shows a flip half-applied.
//
// Peers start optimistically up: the gate and the proxy fallback
// already make a dead peer cheap, and starting down would make a
// freshly booted fleet route everything locally until the first probe
// round.
type peerHealth struct {
	addr   string
	onFlip func(addr string, up bool) // hears every verdict flip, outside mu

	mu   sync.Mutex
	up   bool // the probe verdict
	last bool // outcome of the latest probe
	run  int  // consecutive probes with outcome last

	gate    gateState
	fails   int           // consecutive dial failures while closed
	until   time.Time     // while open: earliest half-open trial
	backoff time.Duration // current open→half-open delay
	trial   uint64        // ticket of the half-open trial in flight; 0 when none
	tickets uint64        // trial tickets issued

	now    func() time.Time // test hook; time.Now in production
	jitter func() float64   // test hook; [0,1) multiplier source

	upGauge   *obs.Gauge   // service_peer_up{peer}
	gateGauge *obs.Gauge   // service_breaker_state{peer}
	probeOK   *obs.Counter // service_probe{result="ok"}, shared by all peers
	probeFail *obs.Counter // service_probe{result="fail"}
}

func newPeerHealth(addr string, m *obs.Registry, onFlip func(string, bool)) *peerHealth {
	h := &peerHealth{
		addr:      addr,
		onFlip:    onFlip,
		up:        true,
		backoff:   gateBackoff,
		now:       time.Now,
		jitter:    rand.Float64,
		upGauge:   m.Gauge("service_peer_up", obs.L("peer", addr)),
		gateGauge: m.Gauge("service_breaker_state", obs.L("peer", addr)),
		probeOK:   m.Counter("service_probe", obs.L("result", "ok")),
		probeFail: m.Counter("service_probe", obs.L("result", "fail")),
	}
	h.upGauge.Set(1)
	h.gateGauge.Set(float64(gateClosed))
	return h
}

// allow reports whether the peer may be dialed now. A dial admitted as
// the gate's half-open trial also gets a nonzero ticket. Every admitted
// dial must end in exactly one report carrying its ticket, so that an
// abandoned trial frees its own slot and never a later trial's.
func (h *peerHealth) allow() (ok bool, trial uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch h.gate {
	case gateClosed:
		return true, 0
	case gateHalfOpen:
		if h.trial != 0 {
			return false, 0
		}
	default: // gateOpen
		if h.now().Before(h.until) {
			return false, 0
		}
		h.setGate(gateHalfOpen)
	}
	h.tickets++
	h.trial = h.tickets
	return true, h.trial
}

// report folds the result of one dial admitted by allow into the gate.
func (h *peerHealth) report(r dialResult, trial uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch {
	case r == dialAnswered:
		h.closeLocked()
	case r == dialAbandoned:
		if trial != 0 && trial == h.trial {
			h.trial = 0
		}
	case h.gate == gateClosed:
		h.fails++
		if h.fails >= gateThreshold {
			h.openLocked()
		}
	case h.gate == gateHalfOpen:
		h.backoff = min(2*h.backoff, gateMaxBackoff)
		h.openLocked()
	}
}

// observe folds one probe outcome into the verdict; a flip also moves
// the gate, and is then passed to onFlip.
func (h *peerHealth) observe(ok bool) {
	need, count := probeFall, h.probeFail
	if ok {
		need, count = probeRise, h.probeOK
	}
	count.Inc()
	h.mu.Lock()
	if h.run == 0 || h.last != ok {
		h.last, h.run = ok, 1
	} else {
		h.run++
	}
	flipped := ok != h.up && h.run >= need
	if flipped {
		h.up = ok
		if ok {
			h.upGauge.Set(1)
			h.closeLocked()
		} else {
			h.upGauge.Set(0)
			if h.gate != gateOpen { // re-opening must not push the deadline
				h.openLocked()
			}
		}
	}
	h.mu.Unlock()
	if flipped && h.onFlip != nil {
		h.onFlip(h.addr, ok)
	}
}

// entry is the peer's healthz document: verdict and gate, read together.
func (h *peerHealth) entry() map[string]any {
	h.mu.Lock()
	defer h.mu.Unlock()
	return map[string]any{"up": h.up, "breaker": h.gate.String()}
}

// closeLocked closes the gate and resets the failure count and backoff.
// Caller holds h.mu.
func (h *peerHealth) closeLocked() {
	h.fails, h.trial, h.backoff = 0, 0, gateBackoff
	h.setGate(gateClosed)
}

// openLocked trips the gate for the current backoff plus up to 25%
// jitter, so a fleet's gates don't retry a recovering peer in lockstep.
// Caller holds h.mu.
func (h *peerHealth) openLocked() {
	h.fails, h.trial = 0, 0
	h.until = h.now().Add(h.backoff + time.Duration(h.jitter()*0.25*float64(h.backoff)))
	h.setGate(gateOpen)
}

// setGate moves the gate and mirrors it into the gauge. Caller holds h.mu.
func (h *peerHealth) setGate(g gateState) {
	if h.gate != g {
		h.gate = g
		h.gateGauge.Set(float64(g))
	}
}

// probeFunc checks one peer's health; nil error means healthy.
type probeFunc func(ctx context.Context, addr string) error

// httpProbe is the production probeFunc: GET /v1/healthz must answer
// 200 within half the probe interval.
func httpProbe(interval time.Duration) probeFunc {
	client := &http.Client{Timeout: max(interval/2, 250*time.Millisecond)}
	return func(ctx context.Context, addr string) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/v1/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("healthz status %d", resp.StatusCode)
		}
		return nil
	}
}

// startProbes launches one probe loop per peer and returns the function
// that stops and joins them. Each loop sleeps a jittered [0.75, 1.25]
// of the interval between probes, so a fleet's probes don't synchronize
// into bursts.
func startProbes(peers map[string]*peerHealth, interval time.Duration, probe probeFunc) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, h := range peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seed := fnv.New64a()
			seed.Write([]byte(h.addr))
			rng := rand.New(rand.NewSource(int64(seed.Sum64())))
			for {
				sleep := time.Duration((0.75 + 0.5*rng.Float64()) * float64(interval))
				select {
				case <-ctx.Done():
					return
				case <-time.After(sleep):
				}
				err := probe(ctx, h.addr)
				if ctx.Err() != nil {
					return
				}
				h.observe(err == nil)
			}
		}()
	}
	return func() {
		cancel()
		wg.Wait()
	}
}
