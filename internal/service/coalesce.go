package service

import (
	"context"
	"fmt"
	"sync"
)

// flight is one in-flight search shared by every concurrent request
// that fingerprints to it. The first request for an uncached
// fingerprint becomes the flight's leader: it takes the admission path
// (fair queue, worker slot) and runs the one search. Every later
// request for the same fingerprint subscribes instead — no slot, no
// queue position — and fans the leader's body out when done closes.
// The fan-out is sound because the body is a pure function of the
// fingerprint (the determinism invariant): whoever computes it, the
// bytes are identical.
//
// The search runs under the flight's own context, not the leader's
// request context: the leader is merely the first subscriber, and its
// disconnect must not kill a search that other subscribers still want.
// Each subscriber holds one reference; when the last reference is
// dropped (every client disconnected) the flight context is canceled
// and the search aborts at its next trial boundary.
type flight struct {
	id       string
	ctx      context.Context
	cancel   context.CancelFunc
	done     chan struct{} // closed after body/err are set
	doneOnce sync.Once
	body     []byte
	err      error

	mu   sync.Mutex
	refs int
}

// join adds a subscriber unless every earlier one has left: such a
// flight is canceled (or about to be) and can only end in a
// cancellation its next subscriber never asked for.
func (f *flight) join() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.refs == 0 {
		return false
	}
	f.refs++
	return true
}

// flightRef is one subscriber's reference on a flight. leave is
// idempotent: it runs on handler exit and — via context.AfterFunc — on
// client disconnect, whichever comes first.
type flightRef struct {
	f    *flight
	once sync.Once
}

func (r *flightRef) leave() {
	r.once.Do(func() {
		r.f.mu.Lock()
		r.f.refs--
		last := r.f.refs == 0
		r.f.mu.Unlock()
		if last {
			r.f.cancel()
		}
	})
}

// flightFor returns the flight for a fingerprint and whether the caller
// is its leader, registering the caller as a subscriber either way. The
// returned ref must be released with leave (the handler defers it; a
// client disconnect triggers it early through AfterFunc). The watcher
// needs no stop: the request context always ends once the handler
// returns, and a leave after the handler's own is a no-op.
func (s *Server) flightFor(id string, rctx context.Context) (*flight, *flightRef, bool) {
	s.fmu.Lock()
	f := s.flights[id]
	leader := f == nil || !f.join()
	if leader {
		ctx, cancel := context.WithCancel(context.Background())
		f = &flight{id: id, ctx: ctx, cancel: cancel, done: make(chan struct{}), refs: 1}
		s.flights[id] = f
	}
	s.fmu.Unlock()
	ref := &flightRef{f: f}
	context.AfterFunc(rctx, ref.leave)
	return f, ref, leader
}

// flightDone publishes the leader's result and retires the flight. On
// success the decision is stored in the LRU *before* the flight is
// removed from the index, so there is no window where a new request
// sees neither the cache entry nor the flight; subscribers are then
// released by closing done. Idempotent: the leader's deferred abandon
// guard calls it too, and the first outcome wins.
func (s *Server) flightDone(f *flight, body []byte, trace []byte, err error) {
	f.doneOnce.Do(func() {
		f.body, f.err = body, err
		if err == nil {
			s.store(f.id, body, trace)
		}
		s.fmu.Lock()
		if s.flights[f.id] == f { // a doomed flight may have been replaced
			delete(s.flights, f.id)
		}
		s.fmu.Unlock()
		close(f.done)
		f.cancel()
	})
}

// errFlightAbandoned is the outcome subscribers see if the leader's
// handler unwound without publishing one (a panic past fault.Guard):
// the flight must still terminate or coalesced subscribers would hang.
var errFlightAbandoned = fmt.Errorf("coalesced search abandoned by its leader")
