package prog

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/convert"
	"repro/internal/hw"
	"repro/internal/kir"
	"repro/internal/ocl"
	"repro/internal/precision"
)

// This file implements incremental trial evaluation: an op-level result
// cache shared by all trials of one search. The decision-tree search
// mutates one memory object's configuration at a time, so successive
// trials share almost all of their ops; caching each op's outputs,
// virtual-clock events, and timing under a content-addressed key lets a
// trial re-execute only the ops reachable from the changed object and
// splice cached results for the rest.
//
// Correctness rests on content versioning. Every device buffer the
// evaluator manages carries a version tag; two buffers with the same
// version hold bit-identical data by construction (fresh versions are
// assigned exactly when an op produces new contents, and zero-filled
// buffers of equal shape share one version). An op's key combines its
// static parameters (object, precisions, plan, kernel, NDRange, int
// args) with the versions of its input buffers, so a key match implies
// the op would read exactly the same bytes — and since the simulated
// runtime is deterministic, it would produce exactly the same outputs,
// the same event durations, and the same dynamic counts. Replay restores
// the cached outputs bit-for-bit by sharing the frozen snapshots (Adopt:
// no copy, no re-rounding; a later write forks the live buffer) and
// re-records the cached events through the queue, advancing the virtual
// clock by the identical float64 duration sequence, so timing totals,
// traces, and metrics are byte-identical to a live run.
//
// Timing jitter resamples durations per event position, which replay
// cannot reproduce; RunWithCache therefore bypasses the cache entirely
// on jittered systems.
//
// The cache also memoizes trial scores. Every Read entry's host snapshot
// is registered under an id when the entry is inserted; the cache keeps
// the snapshot, so its storage identifies its contents for as long as
// the cache lives, and every replay hands out views of that storage. A
// score is a pure function of the reference and trial outputs, so
// Quality keys it by the outputs' snapshot ids and computes it once per
// cache. Outputs that are not registered snapshots (a run that bypassed
// the cache, an entry dropped over the budget, an empty output, a view
// written after Read) are scored afresh every time.

// EvalStats reports incremental-evaluation counters. Every cache probe
// is either a hit (the op's execution was skipped and its results
// spliced) or a miss (the op ran live and was recorded), so OpsSkipped
// always equals Hits; it is kept as a separate field because it is the
// headline number for the bench reports.
type EvalStats struct {
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	OpsSkipped int64 `json:"ops_skipped"`
}

// Add returns the element-wise sum of two stat sets.
func (s EvalStats) Add(o EvalStats) EvalStats {
	return EvalStats{
		Hits:       s.Hits + o.Hits,
		Misses:     s.Misses + o.Misses,
		OpsSkipped: s.OpsSkipped + o.OpsSkipped,
	}
}

// defaultCacheBytes bounds the approximate memory retained in output
// snapshots before the cache stops inserting new entries (existing
// entries keep serving hits).
const defaultCacheBytes = 1 << 30

// EvalCache is the shared op-result store for one search. It is bound to
// a single (system, workload) pair on first use and is safe for
// concurrent use by speculative trial workers: the maps are mutex
// guarded, entries are immutable once inserted, and version/counter
// state is atomic.
type EvalCache struct {
	mu       sync.Mutex
	bound    bool
	sysName  string
	wName    string
	hosts    map[InputSet]map[string]*precision.Array
	zeros    map[zeroKey]uint64
	ops      map[string]*opEntry
	bytes    int64
	maxBytes int64
	// snaps registers the host snapshot of every cached Read by its
	// storage; scores memoizes Quality by the snapshot ids it reads.
	snaps  map[*float64]snapshot
	scores map[string]float64

	version atomic.Uint64
	hits    atomic.Int64
	misses  atomic.Int64
}

type zeroKey struct {
	elem precision.Type
	n    int
}

// snapshot is one registered Read snapshot: its id and its length (two
// views of one storage may differ in length).
type snapshot struct {
	id uint64
	n  int
}

// NewEvalCache returns an empty cache ready to be shared across the
// trials of one search.
func NewEvalCache() *EvalCache {
	return &EvalCache{
		hosts:    map[InputSet]map[string]*precision.Array{},
		zeros:    map[zeroKey]uint64{},
		ops:      map[string]*opEntry{},
		maxBytes: defaultCacheBytes,
		snaps:    map[*float64]snapshot{},
		scores:   map[string]float64{},
	}
}

// SetMemoryLimit overrides the snapshot-byte budget (tests and tools).
func (c *EvalCache) SetMemoryLimit(bytes int64) {
	c.mu.Lock()
	c.maxBytes = bytes
	c.mu.Unlock()
}

// Stats returns the counters accumulated so far. Note that the split
// between hits and misses depends on trial scheduling when speculative
// workers share the cache; the simulated results never do.
func (c *EvalCache) Stats() EvalStats {
	h := c.hits.Load()
	return EvalStats{Hits: h, Misses: c.misses.Load(), OpsSkipped: h}
}

// Entries returns the number of cached op results — the service's
// health endpoint reports it per (system, benchmark) cache so load
// tests can verify cache growth without scraping metrics.
func (c *EvalCache) Entries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.ops)
}

// bind ties the cache to its (system, workload) pair. Keys do not embed
// the pair, so reuse across different systems or workloads would alias;
// it is rejected instead.
func (c *EvalCache) bind(sys *hw.System, w *Workload) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.bound {
		c.bound, c.sysName, c.wName = true, sys.Name, w.Name
		return nil
	}
	if c.sysName != sys.Name || c.wName != w.Name {
		return fmt.Errorf("prog: EvalCache bound to %s/%s, cannot be used with %s/%s",
			c.sysName, c.wName, sys.Name, w.Name)
	}
	return nil
}

// hostsFor memoizes hostInputs per input set. Only the frozen arrays are
// kept, so the raw MakeInputs slices are collected. The returned map and
// its arrays are shared read-only across trials.
func (c *EvalCache) hostsFor(w *Workload, set InputSet) map[string]*precision.Array {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.hosts[set]
	if !ok {
		m = hostInputs(w, set)
		c.hosts[set] = m
	}
	return m
}

// zeroVersion returns the shared content version for zero-filled buffers
// of the given shape: all such buffers hold identical data, so they may
// share one version.
func (c *EvalCache) zeroVersion(t precision.Type, n int) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := zeroKey{t, n}
	v, ok := c.zeros[k]
	if !ok {
		v = c.version.Add(1)
		c.zeros[k] = v
	}
	return v
}

// nextVersion mints a fresh content version.
func (c *EvalCache) nextVersion() uint64 { return c.version.Add(1) }

// lookup probes the op store and counts the outcome.
func (c *EvalCache) lookup(key string) (*opEntry, bool) {
	c.mu.Lock()
	e, ok := c.ops[key]
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return e, ok
}

// insert stores an entry first-wins (concurrent workers may race to
// record the same op; the entries are interchangeable by construction)
// and registers a Read entry's host snapshot for the score memo. Entries
// beyond the memory budget are dropped silently: the op simply stays a
// miss, and its snapshot is not registered.
func (c *EvalCache) insert(key string, e *opEntry) {
	sz := e.approxBytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.ops[key]; ok {
		return
	}
	if c.bytes+sz > c.maxBytes {
		return
	}
	c.bytes += sz
	c.ops[key] = e
	if p := storage(e.host); p != nil {
		if _, ok := c.snaps[p]; !ok {
			c.snaps[p] = snapshot{id: uint64(len(c.snaps)) + 1, n: e.host.Len()}
		}
	}
}

// storage returns the first element of a's storage, the identity of a
// registered snapshot; nil for a nil or empty array.
func storage(a *precision.Array) *float64 {
	if a == nil || a.Len() == 0 {
		return nil
	}
	return &a.Values()[0]
}

// Quality returns QualityNamed(names, ref, res), computed once per cache
// for each combination of snapshots. When every named output of ref and
// res is a view of a snapshot this cache registered, the score is memoized
// under the snapshot ids in name order; otherwise it is computed afresh.
// A nil cache always computes.
func (c *EvalCache) Quality(names []string, ref, res *Result) float64 {
	if c == nil {
		return QualityNamed(names, ref, res)
	}
	var buf [64]byte
	key := buf[:0]
	c.mu.Lock()
	for _, name := range names {
		for _, r := range [2]*Result{ref, res} {
			a := r.Outputs[name]
			sn, ok := c.snaps[storage(a)]
			if !ok || sn.n != a.Len() {
				c.mu.Unlock()
				return QualityNamed(names, ref, res)
			}
			key = binary.AppendUvarint(key, sn.id)
		}
	}
	q, ok := c.scores[string(key)]
	c.mu.Unlock()
	if ok {
		return q
	}
	q = QualityNamed(names, ref, res)
	c.mu.Lock()
	c.scores[string(key)] = q
	c.mu.Unlock()
	return q
}

// Event buffer references inside a cached entry are symbolic, because
// buffer ids differ between the recording trial and the replaying one.
const (
	refLiteral = -1 // event has no buffer (kernels, host time)
	refSubject = -2 // the pre-existing buffer the op operates on (Read)
)

// bufSpec describes a buffer the op created, replayed through a real
// CreateBuffer call so allocation accounting, ids, and hooks behave as
// in a live run.
type bufSpec struct {
	name string
	elem precision.Type
	n    int
}

// cachedEvent is one recorded queue event plus the symbolic rebinding of
// its buffer references. Kernel events get fresh ArgBuffers from the
// live launch arguments at replay.
type cachedEvent struct {
	ev     ocl.Event
	ref    int
	kernel bool
}

// outSpec is one buffer the op (re)wrote: the kernel argument index (or
// -1 for the buffer the op itself created, i.e. a Write's final buffer),
// a frozen snapshot sharing its contents, and the version tag to restore.
type outSpec struct {
	arg     int
	data    *precision.Array
	version uint64
}

// opEntry is the cached outcome of one program op.
type opEntry struct {
	created []bufSpec
	events  []cachedEvent
	outs    []outSpec
	// final indexes created for the buffer a Write returns; -1 otherwise.
	final int
	// host is the frozen read-back array of a Read op (shared on every
	// hit).
	host *precision.Array
}

// approxBytes counts each snapshot's elements at 8 bytes, whether or not
// its storage is shared with another entry's.
func (e *opEntry) approxBytes() int64 {
	var n int64
	for _, o := range e.outs {
		n += int64(o.data.Len()) * 8
	}
	if e.host != nil {
		n += int64(e.host.Len()) * 8
	}
	return n + int64(len(e.events))*64 + 64
}

// --- key encoding ---
//
// Keys are compact binary strings: a kind tag, NUL-terminated names,
// single bytes for precisions/methods, and varints for counts and
// versions. They are only ever compared for equality.

func appendPlan(b []byte, p convert.Plan) []byte {
	b = append(b, byte(p.Host), byte(p.Mid))
	return binary.AppendUvarint(b, uint64(p.Threads))
}

func writeOpKey(set InputSet, obj string, elems int, hostType, storage precision.Type, plan convert.Plan) string {
	b := make([]byte, 0, 24+len(obj))
	b = append(b, 'W', byte(set))
	b = append(b, obj...)
	b = append(b, 0, byte(hostType), byte(storage))
	b = binary.AppendUvarint(b, uint64(elems))
	b = appendPlan(b, plan)
	return string(b)
}

// launchOpKey returns ok=false when any argument buffer is unversioned
// (not managed by the evaluator); the launch then runs uncached.
func launchOpKey(name string, global [2]int, intArgs []int64, bufs []*ocl.Buffer, computeAs []precision.Type) (key string, ok bool) {
	b := make([]byte, 0, 32+len(name)+12*len(bufs))
	b = append(b, 'K')
	b = append(b, name...)
	b = append(b, 0)
	b = binary.AppendUvarint(b, uint64(global[0]))
	b = binary.AppendUvarint(b, uint64(global[1]))
	b = binary.AppendUvarint(b, uint64(len(intArgs)))
	for _, v := range intArgs {
		b = binary.AppendVarint(b, v)
	}
	b = binary.AppendUvarint(b, uint64(len(bufs)))
	for i, buf := range bufs {
		v := buf.ContentVersion()
		if v == 0 {
			return "", false
		}
		ca := precision.Invalid
		if computeAs != nil && i < len(computeAs) {
			ca = computeAs[i]
		}
		b = append(b, byte(buf.Elem()), byte(ca))
		b = binary.AppendUvarint(b, v)
	}
	return string(b), true
}

func readOpKey(obj string, devElem precision.Type, elems int, version uint64, hostType precision.Type, plan convert.Plan) string {
	b := make([]byte, 0, 24+len(obj))
	b = append(b, 'R')
	b = append(b, obj...)
	b = append(b, 0, byte(devElem), byte(hostType))
	b = binary.AppendUvarint(b, uint64(elems))
	b = binary.AppendUvarint(b, version)
	b = appendPlan(b, plan)
	return string(b)
}

// --- recording and replay (Exec side) ---

// createdRecorder logs every buffer allocated while the cache is active,
// so a miss can snapshot the buffers its op created.
type createdRecorder struct{ x *Exec }

func (r createdRecorder) BufferCreated(b *ocl.Buffer) { r.x.created = append(r.x.created, b) }
func (r createdRecorder) EventRecorded(ocl.Event)     {}

// mapEvents rewrites the buffer references of a recorded event run into
// symbolic form. It fails (ok=false) when an event references a buffer
// that is neither op-created nor the subject — such an op cannot be
// replayed safely and is left uncached.
func mapEvents(events []ocl.Event, created []*ocl.Buffer, subject *ocl.Buffer) ([]cachedEvent, bool) {
	idx := make(map[int]int, len(created))
	for i, b := range created {
		idx[b.ID()] = i
	}
	out := make([]cachedEvent, len(events))
	for i, ev := range events {
		ce := cachedEvent{ev: ev, ref: refLiteral}
		switch {
		case ev.Kind == ocl.EvKernel:
			ce.kernel = true
			ce.ev.ArgBuffers = nil
		case ev.Buffer >= 0:
			if j, ok := idx[ev.Buffer]; ok {
				ce.ref = j
			} else if subject != nil && ev.Buffer == subject.ID() {
				ce.ref = refSubject
			} else {
				return nil, false
			}
			ce.ev.Buffer = -1
		}
		out[i] = ce
	}
	return out, true
}

func bufSpecs(created []*ocl.Buffer) []bufSpec {
	out := make([]bufSpec, len(created))
	for i, b := range created {
		out[i] = bufSpec{name: b.Name(), elem: b.Elem(), n: b.Len()}
	}
	return out
}

// replayEntry splices a cached op into the live execution: it re-creates
// the op's buffers, re-records its events (rebinding buffer references
// to live ids), shares the cached output snapshots into their buffers,
// restores their versions, and returns the created buffers.
func (x *Exec) replayEntry(e *opEntry, subject *ocl.Buffer, args []*ocl.Buffer) []*ocl.Buffer {
	created := make([]*ocl.Buffer, len(e.created))
	for i, bs := range e.created {
		// Must: the cache is bypassed on fault-injecting systems, and a
		// replay repeats an allocation sequence that already succeeded when
		// the entry was recorded, so failure here is an invariant violation.
		created[i] = x.ctx.MustCreateBuffer(bs.name, bs.elem, bs.n)
	}
	for _, ce := range e.events {
		ev := ce.ev
		switch {
		case ce.kernel:
			ids := make([]int, len(args))
			for i, b := range args {
				ids[i] = b.ID()
			}
			ev.ArgBuffers = ids
		case ce.ref == refSubject:
			ev.Buffer = subject.ID()
		case ce.ref >= 0:
			ev.Buffer = created[ce.ref].ID()
		}
		x.q.ReplayEvent(ev)
	}
	for _, out := range e.outs {
		var b *ocl.Buffer
		if out.arg >= 0 {
			b = args[out.arg]
		} else {
			b = created[e.final]
		}
		b.Array().Adopt(out.data)
		b.SetContentVersion(out.version)
	}
	return created
}

// captureWrite records a just-executed Write op. buf is the device
// buffer the op produced; it must be among the op's created buffers.
func (x *Exec) captureWrite(key string, createdStart, evStart int, buf *ocl.Buffer, ver uint64) {
	created := x.created[createdStart:]
	final := -1
	for i, b := range created {
		if b == buf {
			final = i
			break
		}
	}
	if final < 0 {
		return
	}
	events, ok := mapEvents(x.q.EventsSince(evStart), created, nil)
	if !ok {
		return
	}
	x.cache.insert(key, &opEntry{
		created: bufSpecs(created),
		events:  events,
		outs:    []outSpec{{arg: -1, data: buf.Array().Share(), version: ver}},
		final:   final,
	})
}

// captureLaunch records a just-executed kernel launch with the snapshots
// of its written arguments.
func (x *Exec) captureLaunch(key string, createdStart, evStart int, outs []outSpec) {
	created := x.created[createdStart:]
	events, ok := mapEvents(x.q.EventsSince(evStart), created, nil)
	if !ok {
		return
	}
	x.cache.insert(key, &opEntry{
		created: bufSpecs(created),
		events:  events,
		outs:    outs,
		final:   -1,
	})
}

// captureRead records a just-executed Read op. subject is the device
// buffer read; host is the resulting host array. The cache keeps a frozen
// view of it and shares that again on every hit; every view forks on its
// first write, so no write reaches the cache.
func (x *Exec) captureRead(key string, createdStart, evStart int, subject *ocl.Buffer, host *precision.Array) {
	created := x.created[createdStart:]
	events, ok := mapEvents(x.q.EventsSince(evStart), created, subject)
	if !ok {
		return
	}
	x.cache.insert(key, &opEntry{
		created: bufSpecs(created),
		events:  events,
		final:   -1,
		host:    host.Share(),
	})
}

// freshenWritten invalidates the written arguments of a launch whose
// results cannot be trusted for reuse (error paths, unversioned inputs):
// each gets a fresh version so no stale key can match their contents.
func (x *Exec) freshenWritten(p *kir.Program, bufs []*ocl.Buffer) {
	wp := p.WrittenParams()
	for i, b := range bufs {
		if i < len(wp) && wp[i] {
			b.SetContentVersion(x.cache.nextVersion())
		}
	}
}

// --- dependency index ---

// DependencyIndex maps memory objects to the ops of a recorded trace
// that must re-execute when that object's configuration changes. It
// exists to validate (and explain) the evaluator: the op-level cache
// arrives at the same set dynamically through content versions, because
// an op outside the affected set sees only unchanged keys.
type DependencyIndex struct {
	w   *Workload
	ops []Op
}

// BuildDependencyIndex derives the index from a workload and the op
// trace of one of its executions (e.g. Result.Ops of the profile run).
func BuildDependencyIndex(w *Workload, ops []Op) *DependencyIndex {
	return &DependencyIndex{w: w, ops: ops}
}

// AffectedOps returns the indices of ops that re-execute when obj's
// configuration changes, by propagating taint through the op stream: a
// Write of obj is affected and (re)taints its buffer; a kernel reading
// any tainted buffer is affected and taints the buffers it writes; a
// Write of another object clears that object's taint (its buffer is
// recreated from host data); a Read is affected when its object is
// tainted (which obj itself always is — the read plan belongs to its
// config).
func (d *DependencyIndex) AffectedOps(obj string) []int {
	tainted := map[string]bool{obj: true}
	var out []int
	for i, op := range d.ops {
		switch op.Kind {
		case OpWrite:
			if op.Object == obj {
				out = append(out, i)
			}
			tainted[op.Object] = op.Object == obj
		case OpRead:
			if tainted[op.Object] {
				out = append(out, i)
			}
		case OpKernel:
			hit := false
			for _, a := range op.Args {
				if tainted[a] {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
			out = append(out, i)
			if p, ok := d.w.Kernels[op.Kernel]; ok {
				wp := p.WrittenParams()
				for j, a := range op.Args {
					if j < len(wp) && wp[j] {
						tainted[a] = true
					}
				}
			}
		}
	}
	return out
}
