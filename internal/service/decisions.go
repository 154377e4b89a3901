package service

import (
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/obs"
	"repro/internal/scaler"
)

// The decision table holds one record per decision id. A record
// carries everything the server knows about that id at once: the SSE
// event log (from the first subscriber or search on), the one coalesced
// search while it runs, and the body and wall trace once stored. One
// lock, Server.dmu, guards every state change, so no handoff between
// structures can lose a decision or leave an event stream without an
// owner. Which fields are set says where the record is in its life:
//
//   - pending: done is nil. Only SSE subscribers hold it (the
//     fingerprint, subscribe, POST flow); it leaves the table with its
//     last subscriber, or when this node relays a peer's answer.
//   - in flight: done is open. ctx runs the search, and refs counts the
//     scale requests waiting on it.
//   - stored: el places it in the LRU, body holds the decision and
//     trace the closed wall tracer of a local search, rendered only when
//     GET /v1/decisions/{id}/trace asks for it. done is closed, or closes
//     when a search that a warm push or session create overtook ends.
//
// A failed search removes its record at once: its subscribers still
// read the terminal error from the log they hold, and the next request
// or subscriber for the id starts a fresh record. Every log ends, and a
// search's log is ended by the search: with the leader's done or error
// (done {"cached":true} if a body was stored mid-search and the search
// then failed), with done {"cached":true} when a body is stored without
// a search or relayed from a peer, or with error when a relayed peer
// answer is not a 200.
type decision struct {
	id   string
	log  *eventLog // set at creation; has its own lock
	subs int       // open SSE connections

	ctx    context.Context // the search's own context, not a request's
	cancel context.CancelFunc
	done   chan struct{} // closed once body or err is final
	refs   int           // scale requests holding the search
	err    error

	el    *list.Element
	body  []byte
	trace *obs.Tracer
}

// errFlightAbandoned is the outcome waiting requests see if the
// leader's handler unwound without publishing one (a panic past
// fault.Guard): the search must still end or they would hang.
var errFlightAbandoned = fmt.Errorf("coalesced search abandoned by its leader")

// join registers a scale request on the record for id and reports
// whether the request leads its search. The first request for a
// pending or absent record leads: it takes the admission path and runs
// the one search under the record's own context, so its disconnect
// cannot kill a search later requests still want. Every other request
// waits on done for free — no queue position, no worker slot. Each
// request holds one ref, released by leave on handler exit or, through
// context.AfterFunc, on client disconnect; the last release cancels the
// search. A request never joins a search every earlier request has
// left: that search can only end in a cancellation nobody asked for, so
// a fresh record replaces it.
func (s *Server) join(id string, rctx context.Context) (rec *decision, leave func(), leader bool) {
	s.dmu.Lock()
	rec = s.decisions[id]
	switch {
	case rec == nil, rec.done != nil && rec.el == nil && rec.refs == 0:
		rec = s.addLocked(id)
		leader = true
	case rec.done == nil:
		leader = true
	}
	if leader {
		rec.ctx, rec.cancel = context.WithCancel(context.Background())
		rec.done = make(chan struct{})
	}
	rec.refs++
	s.dmu.Unlock()
	leave = sync.OnceFunc(func() {
		s.dmu.Lock()
		rec.refs--
		last := rec.refs == 0 && rec.cancel != nil
		s.dmu.Unlock()
		if last {
			rec.cancel()
		}
	})
	context.AfterFunc(rctx, leave)
	return rec, leave, leader
}

// finish ends the record's search. On success the body and trace move
// into the LRU before waiting requests are released, in one state
// change, so a request arriving at that instant finds either the search
// or the stored decision; a record that was replaced (see join) or
// evicted meanwhile stores its body under whatever record the table now
// holds for the id. On failure the record leaves the table. Then the
// log ends with done or error. The first outcome wins: the leader's
// abandon guard calls finish again.
func (s *Server) finish(rec *decision, body []byte, trace *obs.Tracer, err error) {
	s.dmu.Lock()
	select {
	case <-rec.done:
		s.dmu.Unlock()
		return
	default:
	}
	var other *eventLog // another record's log a stored body ends
	current := s.decisions[rec.id] == rec
	switch {
	case err == nil && current:
		s.storeLocked(rec, body, trace)
	case err == nil:
		other = s.storeIDLocked(rec.id, body, trace)
	case current && rec.el == nil:
		delete(s.decisions, rec.id)
	}
	stored := current && rec.el != nil
	rec.err = err
	close(rec.done)
	s.dmu.Unlock()
	rec.cancel()
	if other != nil {
		other.publish(doneEvent(rec.id, true))
	}
	switch {
	case err == nil:
		rec.log.publish(doneEvent(rec.id, false))
	case stored:
		// A warm push or session create stored the body mid-search: the
		// log ends as any body stored without a search ends it.
		rec.log.publish(doneEvent(rec.id, true))
	default:
		rec.log.publish(errorEvent(err))
	}
}

// store makes body the stored decision of id without a local search —
// journal replay, a warm push, a session create. A record with no
// search in flight ends its log with done {"cached":true}; a search
// ends its own.
func (s *Server) store(id string, body []byte) {
	s.dmu.Lock()
	log := s.storeIDLocked(id, body, nil)
	s.dmu.Unlock()
	if log != nil {
		log.publish(doneEvent(id, true))
	}
}

// storeIDLocked stores body and trace under the table's record for id,
// creating one when there is none. It returns the log the caller must
// end with done {"cached":true} — the record's, when it was not stored
// yet and has no search — or nil. Caller holds dmu.
func (s *Server) storeIDLocked(id string, body []byte, trace *obs.Tracer) *eventLog {
	rec := s.decisions[id]
	if rec == nil {
		rec = s.addLocked(id)
	}
	if !s.storeLocked(rec, body, trace) || rec.done != nil {
		return nil
	}
	rec.done = make(chan struct{})
	close(rec.done)
	return rec.log
}

// addLocked puts a fresh record for id in the table. Caller holds dmu.
func (s *Server) addLocked(id string) *decision {
	rec := &decision{id: id, log: newEventLog()}
	s.decisions[id] = rec
	return rec
}

// storeLocked moves a record into the LRU, journals its body and
// evicts beyond capacity; eviction removes the record. It reports false
// when the record was already stored (a warm push got there first),
// refreshing its position. Caller holds dmu.
func (s *Server) storeLocked(rec *decision, body []byte, trace *obs.Tracer) bool {
	if rec.el != nil {
		s.lru.MoveToFront(rec.el)
		return false
	}
	rec.body, rec.trace = body, trace
	rec.el = s.lru.PushFront(rec)
	if s.journal != nil {
		s.journal.append(rec.id, body)
	}
	for s.lru.Len() > s.maxSize {
		victim := s.lru.Remove(s.lru.Back()).(*decision)
		delete(s.decisions, victim.id)
		s.obs.Metrics().Counter("service_cache_evictions").Inc()
	}
	return true
}

// cached returns the stored body for a decision id, refreshing its LRU
// position.
func (s *Server) cached(id string) ([]byte, bool) {
	s.dmu.Lock()
	defer s.dmu.Unlock()
	rec := s.decisions[id]
	if rec == nil || rec.el == nil {
		return nil, false
	}
	s.lru.MoveToFront(rec.el)
	return rec.body, true
}

// traceFor returns the closed wall tracer of a stored decision.
func (s *Server) traceFor(id string) (*obs.Tracer, bool) {
	s.dmu.Lock()
	defer s.dmu.Unlock()
	rec := s.decisions[id]
	if rec == nil || rec.el == nil || rec.trace == nil {
		return nil, false
	}
	return rec.trace, true
}

// subscribe attaches an SSE connection to the record for id, creating
// a pending record when there is none. Release with unsubscribe.
func (s *Server) subscribe(id string) *decision {
	s.dmu.Lock()
	defer s.dmu.Unlock()
	rec := s.decisions[id]
	if rec == nil {
		rec = s.addLocked(id)
	}
	rec.subs++
	return rec
}

// unsubscribe detaches an SSE connection; a pending record goes away
// with its last subscriber.
func (s *Server) unsubscribe(rec *decision) {
	s.dmu.Lock()
	defer s.dmu.Unlock()
	rec.subs--
	if rec.subs == 0 && rec.done == nil && s.decisions[rec.id] == rec {
		delete(s.decisions, rec.id)
	}
}

// relayed ends the log of a pending record when this node relayed a
// peer's answer instead of computing it: a 200 ends it with done
// {"cached":true}, any other status with error, as a local search would
// have. The record leaves the table (a proxied body is not stored
// here), so the next request or subscriber starts afresh. In-flight and
// stored records end their logs themselves.
func (s *Server) relayed(id, owner string, status int) {
	s.dmu.Lock()
	rec := s.decisions[id]
	if rec == nil || rec.done != nil {
		s.dmu.Unlock()
		return
	}
	delete(s.decisions, id)
	s.dmu.Unlock()
	if status == http.StatusOK {
		rec.log.publish(doneEvent(id, true))
		return
	}
	rec.log.publish(errorEvent(fmt.Errorf("replica %s answered %d", owner, status)))
}

// sseEvent is one server-sent event: the SSE event name plus its JSON
// data payload. A search's progress event keeps its value and is encoded
// only when a subscriber reads it, since almost no decision is streamed;
// every other event is encoded once at publish time.
type sseEvent struct {
	name     string                // SSE `event:` field — "start", "trial", "done", ...
	data     []byte                // SSE `data:` field — one JSON object, no newlines
	progress *scaler.ProgressEvent // when set, encoded into the data field on read
}

// payload returns the event's data field, and false for a progress
// event that does not encode, which is not sent.
func (e sseEvent) payload() ([]byte, bool) {
	if e.progress == nil {
		return e.data, true
	}
	data, err := json.Marshal(e.progress)
	return data, err == nil
}

// terminal reports whether this event ends the log.
func (e sseEvent) terminal() bool { return e.name == "done" || e.name == "error" }

// doneEvent is the terminal success event of a decision log.
func doneEvent(id string, cached bool) sseEvent {
	// Marshaling a string and a bool cannot fail.
	data, _ := json.Marshal(map[string]any{"decision_id": id, "cached": cached})
	return sseEvent{name: "done", data: data}
}

// errorEvent is the terminal failure event of a decision log.
func errorEvent(err error) sseEvent {
	data, _ := json.Marshal(map[string]any{"error": err.Error()})
	return sseEvent{name: "error", data: data}
}

// maxStreamHistory bounds the events one log keeps. A search emits tens
// of events; a long-lived session emits one per batch. Past the bound
// the oldest event goes, so readers keeping up lose nothing and every
// reader still reads the terminal event.
const maxStreamHistory = 1024

// eventLog is the append-only event history of one decision or
// session. Readers keep their own cursor, an absolute event number, and
// wait on changed, so a slow reader loses nothing it is within
// maxStreamHistory of: it reads what it missed on its next turn,
// terminal event included.
type eventLog struct {
	mu      sync.Mutex
	events  []sseEvent    // the newest maxStreamHistory events
	base    int           // number of the first kept event
	closed  bool          // terminal event appended
	changed chan struct{} // closed and replaced on every append
}

func newEventLog() *eventLog { return &eventLog{changed: make(chan struct{})} }

// publish appends an event and wakes the readers, dropping the oldest
// event when the log is full. Publishing after the terminal event is a
// no-op.
func (l *eventLog) publish(ev sseEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	if len(l.events) == maxStreamHistory {
		l.events = l.events[1:]
		l.base++
	}
	l.events = append(l.events, ev)
	l.closed = ev.terminal()
	close(l.changed)
	l.changed = make(chan struct{})
}

// read returns the kept events from cursor on, the cursor after them,
// whether the log has ended, and a channel closed at the next append. A
// cursor older than the kept events moves up to the first of them.
// Appending never overwrites a kept slot, so the returned events stay
// valid after the lock is released.
func (l *eventLog) read(cursor int) (events []sseEvent, next int, closed bool, changed <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	events = l.events[max(cursor-l.base, 0):]
	return events, l.base + len(l.events), l.closed, l.changed
}

// serveEvents streams a log as server-sent events, from its first event
// to its terminal one, or until the client leaves. Both events routes
// answer through it.
func serveEvents(w http.ResponseWriter, r *http.Request, log *eventLog) {
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	for cursor := 0; ; {
		events, next, closed, changed := log.read(cursor)
		for _, ev := range events {
			if data, ok := ev.payload(); ok {
				fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.name, data)
			}
		}
		cursor = next
		rc.Flush()
		if closed {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}
