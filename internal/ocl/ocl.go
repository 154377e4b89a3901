// Package ocl is a simulated OpenCL-like runtime for a single CPU+GPU
// system. It provides contexts, device buffers, and an in-order command
// queue whose clock advances according to the hardware model in
// internal/hw: host-device transfers are charged PCIe time, kernel
// launches execute functionally through the kir interpreter and are
// charged roofline time from their dynamic operation counts, and
// device-side conversion kernels are charged conversion-throughput time.
//
// Every operation appends a profiling Event to the queue trace; the
// application profiler attaches via the Hook interface, mirroring the
// link-time interposition wrappers of the paper (Table 2).
package ocl

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/kir"
	"repro/internal/precision"
)

// EventKind classifies trace events.
type EventKind uint8

const (
	// EvWrite is a host-to-device buffer write (clEnqueueWriteBuffer).
	EvWrite EventKind = iota
	// EvRead is a device-to-host buffer read (clEnqueueReadBuffer).
	EvRead
	// EvKernel is a kernel execution (clEnqueueNDRangeKernel).
	EvKernel
	// EvHostConvert is host-side type conversion time (outside the
	// device, but on the program's critical path).
	EvHostConvert
	// EvDeviceConvert is a device-side conversion kernel.
	EvDeviceConvert
)

func (k EventKind) String() string {
	switch k {
	case EvWrite:
		return "write"
	case EvRead:
		return "read"
	case EvKernel:
		return "kernel"
	case EvHostConvert:
		return "host-convert"
	case EvDeviceConvert:
		return "device-convert"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Dir is the transfer direction an event belongs to.
type Dir uint8

const (
	// DirNone marks kernel events.
	DirNone Dir = iota
	// DirHtoD marks host-to-device traffic and its conversions.
	DirHtoD
	// DirDtoH marks device-to-host traffic and its conversions.
	DirDtoH
)

func (d Dir) String() string {
	switch d {
	case DirHtoD:
		return "HtoD"
	case DirDtoH:
		return "DtoH"
	default:
		return "-"
	}
}

// Event is one entry of the queue profiling trace.
type Event struct {
	Kind     EventKind
	Dir      Dir
	Start    float64 // simulated seconds since queue creation
	Duration float64
	// Buffer is the id of the buffer involved (transfers/conversions), or
	// -1 for kernels.
	Buffer int
	Bytes  int
	Elems  int
	// Src and Dst are the conversion endpoint precisions (conversions and
	// transfers; for plain transfers Src == Dst).
	Src, Dst precision.Type
	// Kernel is the kernel name for EvKernel events.
	Kernel string
	// ArgBuffers lists buffer ids bound to the kernel, in argument order.
	ArgBuffers []int
	// Counts holds the dynamic op counts for EvKernel events.
	Counts kir.Counts
}

// Hook observes runtime activity; used by the application profiler.
type Hook interface {
	// BufferCreated fires when a device buffer is allocated.
	BufferCreated(b *Buffer)
	// EventRecorded fires after each queue event completes.
	EventRecorded(e Event)
}

// Context owns device buffers for one system.
type Context struct {
	sys       *hw.System
	hooks     []Hook
	nextID    int
	allocated int
	// inj samples the system's fault spec (nil when injection is off).
	// lost marks a sticky device-lost fault: once tripped, every later
	// operation on the context fails with StatusDeviceNotAvailable.
	inj  *fault.Injector
	lost bool
}

// NewContext creates a context for the given system. When the system
// carries a fault spec, the context owns a fresh injector seeded from
// the spec and the system's FaultSalt, so the failure sequence is a pure
// function of the operation sequence issued on the context.
func NewContext(sys *hw.System) *Context {
	return &Context{sys: sys, inj: fault.NewInjector(sys.Faults, sys.FaultSalt)}
}

// preOp consumes one fault decision ahead of an operation of kind k,
// returning the injected failure if the operation must fail. The
// device-lost stream is sampled first on every operation: it is sticky,
// so after one trip the context only ever reports a lost device.
func (c *Context) preOp(k fault.Kind, op, detail string) error {
	if c.inj == nil {
		return nil
	}
	if c.lost {
		return &Error{Status: StatusDeviceNotAvailable, Op: op, Detail: detail, Injected: true}
	}
	if c.inj.Trip(fault.DevLost) {
		c.lost = true
		return &Error{Status: StatusDeviceNotAvailable, Op: op, Detail: detail, Injected: true}
	}
	if c.inj.Trip(k) {
		return &Error{Status: statusFor(k), Op: op, Detail: detail, Injected: true}
	}
	return nil
}

// System returns the hardware model behind the context.
func (c *Context) System() *hw.System { return c.sys }

// AddHook registers a profiling hook.
func (c *Context) AddHook(h Hook) { c.hooks = append(c.hooks, h) }

// Buffer is a device-resident memory object. Data is held at the buffer's
// element precision: every store rounds, so kernels observe genuine
// reduced-precision values.
type Buffer struct {
	id   int
	name string
	arr  *precision.Array
	ctx  *Context
	// contentVersion tags the buffer's current contents for the
	// incremental trial evaluator (internal/prog). 0 means unversioned:
	// the evaluator bypasses any buffer it has not tagged itself.
	contentVersion uint64
}

// CreateBuffer allocates a device buffer of n elements at precision t.
// The name is a debugging label (typically the memory object name).
// Allocation is the runtime's ENOMEM surface: exceeding the device's
// global memory — or tripping an injected alloc fault — returns a typed
// *Error with StatusMemObjectAllocationFailure instead of panicking, so
// the layers above can retry or degrade.
func (c *Context) CreateBuffer(name string, t precision.Type, n int) (*Buffer, error) {
	if err := c.preOp(fault.Alloc, "alloc", name); err != nil {
		return nil, err
	}
	next := c.allocated + n*t.Size()
	if limit := int(c.sys.GPU.GlobalMemGB * 1e9); limit > 0 && next > limit {
		return nil, &Error{
			Status: StatusMemObjectAllocationFailure, Op: "alloc", Detail: name,
			Err: fmt.Errorf("%d bytes > %.0f GB device memory", next, c.sys.GPU.GlobalMemGB),
		}
	}
	c.allocated = next
	b := &Buffer{id: c.nextID, name: name, arr: precision.NewArray(t, n), ctx: c}
	c.nextID++
	for _, h := range c.hooks {
		h.BufferCreated(b)
	}
	return b, nil
}

// MustCreateBuffer is CreateBuffer for call sites where failure is
// impossible by construction (fault-free contexts sized far below device
// memory — tests, and cache replay of allocations that already succeeded
// when recorded). It panics on error.
func (c *Context) MustCreateBuffer(name string, t precision.Type, n int) *Buffer {
	b, err := c.CreateBuffer(name, t, n)
	if err != nil {
		panic(err)
	}
	return b
}

// AllocatedBytes returns the total device memory allocated through the
// context, including conversion staging buffers.
func (c *Context) AllocatedBytes() int { return c.allocated }

// ID returns the buffer's unique id within its context.
func (b *Buffer) ID() int { return b.id }

// Name returns the buffer's label.
func (b *Buffer) Name() string { return b.name }

// Elem returns the buffer's element precision.
func (b *Buffer) Elem() precision.Type { return b.arr.Elem() }

// Len returns the element count.
func (b *Buffer) Len() int { return b.arr.Len() }

// Bytes returns the device memory footprint.
func (b *Buffer) Bytes() int { return b.arr.Bytes() }

// Array exposes the device-resident data. It may share its storage with
// host arrays and cache snapshots; its mutators fork before writing.
// Direct mutation bypasses the simulated clock; runtime-internal code and
// tests only.
func (b *Buffer) Array() *precision.Array { return b.arr }

// ContentVersion returns the evaluator's content tag for the buffer
// (0 when untagged). See SetContentVersion.
func (b *Buffer) ContentVersion() uint64 { return b.contentVersion }

// SetContentVersion tags the buffer's current contents. The incremental
// trial evaluator assigns a fresh version whenever it (re)writes a
// buffer, so two buffers sharing a version hold bit-identical data.
func (b *Buffer) SetContentVersion(v uint64) { b.contentVersion = v }

// Queue is an in-order command queue with a simulated clock.
type Queue struct {
	ctx    *Context
	now    float64
	events []Event
	jitter *rand.Rand
	jAmp   float64
}

// NewQueue creates a queue on the context with the clock at zero. When
// the system specifies a TimingJitter, every event duration is perturbed
// by deterministic multiplicative noise.
func NewQueue(ctx *Context) *Queue {
	q := &Queue{ctx: ctx}
	if a := ctx.sys.TimingJitter; a > 0 {
		q.jAmp = a
		q.jitter = rand.New(rand.NewSource(ctx.sys.JitterSeed))
	}
	return q
}

// Context returns the owning context.
func (q *Queue) Context() *Context { return q.ctx }

// Now returns the simulated time in seconds.
func (q *Queue) Now() float64 { return q.now }

// Events returns a copy of the trace so far. Mutating the returned
// slice (or reordering it) cannot corrupt the queue's internal trace.
func (q *Queue) Events() []Event {
	out := make([]Event, len(q.events))
	copy(out, q.events)
	return out
}

// NumEvents returns the number of recorded events without copying.
func (q *Queue) NumEvents() int { return len(q.events) }

// EventsSince returns a copy of the events recorded at index start and
// later. The incremental trial evaluator uses it to snapshot the event
// run produced by a single program op.
func (q *Queue) EventsSince(start int) []Event {
	out := make([]Event, len(q.events)-start)
	copy(out, q.events[start:])
	return out
}

// LastEvent returns the most recently recorded event. It panics when no
// event has been recorded yet.
func (q *Queue) LastEvent() Event { return q.events[len(q.events)-1] }

// record advances the clock and appends an event.
func (q *Queue) record(e Event) {
	if q.jitter != nil {
		e.Duration *= 1 + q.jAmp*(2*q.jitter.Float64()-1)
	}
	e.Start = q.now
	q.now += e.Duration
	q.events = append(q.events, e)
	for _, h := range q.ctx.hooks {
		h.EventRecorded(e)
	}
}

// ReplayEvent re-records a previously captured event: the clock advances
// by the event's stored Duration, Start is rewritten to the current time,
// and hooks fire exactly as for a live event. Because stored durations
// are replayed verbatim, the clock accumulates the same float64 sequence
// as a live re-execution, keeping totals bit-identical. Replay is
// meaningless under timing jitter (durations would have been resampled
// per position), so it panics on a jittered queue — callers must bypass
// caching there.
func (q *Queue) ReplayEvent(e Event) {
	if q.jitter != nil {
		panic("ocl: ReplayEvent on a queue with timing jitter")
	}
	e.Start = q.now
	q.now += e.Duration
	q.events = append(q.events, e)
	for _, h := range q.ctx.hooks {
		h.EventRecorded(e)
	}
}

// AddHostTime charges host-side conversion work to the program timeline
// and records it with the given direction and conversion endpoints. The
// convert package uses this for its host-side engines.
func (q *Queue) AddHostTime(seconds float64, dir Dir, buf *Buffer, elems int, src, dst precision.Type) {
	q.record(Event{
		Kind: EvHostConvert, Dir: dir, Duration: seconds,
		Buffer: bufID(buf), Elems: elems, Src: src, Dst: dst,
	})
}

func bufID(b *Buffer) int {
	if b == nil {
		return -1
	}
	return b.id
}

// WriteBuffer transfers src from the host into dst on the device. The
// element precisions must match: conversions are explicit, separate steps
// in this runtime (the convert package composes them). dst shares src's
// storage until either is written.
func (q *Queue) WriteBuffer(dst *Buffer, src *precision.Array) error {
	if src.Elem() != dst.Elem() {
		return &Error{Status: StatusInvalidValue, Op: "write", Detail: dst.name,
			Err: fmt.Errorf("host data is %v, buffer is %v", src.Elem(), dst.Elem())}
	}
	if src.Len() != dst.Len() {
		return &Error{Status: StatusInvalidValue, Op: "write", Detail: dst.name,
			Err: fmt.Errorf("host has %d elements, buffer %d", src.Len(), dst.Len())}
	}
	if err := q.ctx.preOp(fault.Write, "write", dst.name); err != nil {
		return err
	}
	dst.arr.Adopt(src)
	bytes := src.Bytes()
	q.record(Event{
		Kind: EvWrite, Dir: DirHtoD,
		Duration: q.ctx.sys.Bus.TransferTime(float64(bytes)),
		Buffer:   dst.id, Bytes: bytes, Elems: src.Len(),
		Src: src.Elem(), Dst: dst.Elem(),
	})
	return nil
}

// ReadBuffer transfers the device buffer back to a host array of the same
// precision. The host array shares the buffer's storage until either is
// written.
func (q *Queue) ReadBuffer(src *Buffer) (*precision.Array, error) {
	if err := q.ctx.preOp(fault.Read, "read", src.name); err != nil {
		return nil, err
	}
	out := src.arr.Share()
	bytes := src.Bytes()
	q.record(Event{
		Kind: EvRead, Dir: DirDtoH,
		Duration: q.ctx.sys.Bus.TransferTime(float64(bytes)),
		Buffer:   src.id, Bytes: bytes, Elems: src.Len(),
		Src: src.Elem(), Dst: src.Elem(),
	})
	return out, nil
}

// MustReadBuffer is ReadBuffer for fault-free contexts, where a read
// cannot fail. It panics on error; tests use it.
func (q *Queue) MustReadBuffer(src *Buffer) *precision.Array {
	out, err := q.ReadBuffer(src)
	if err != nil {
		panic(err)
	}
	return out
}

// DeviceConvert runs a conversion kernel on the device, producing a new
// buffer of the same length at precision dst. Cost is the larger of
// conversion-instruction throughput and memory traffic, plus a kernel
// launch. The source buffer is unchanged.
func (q *Queue) DeviceConvert(src *Buffer, dst precision.Type) (*Buffer, error) {
	return q.deviceConvert(src, dst, DirNone)
}

// MustDeviceConvert is DeviceConvert for fault-free contexts; it panics
// on error. Tests use it.
func (q *Queue) MustDeviceConvert(src *Buffer, dst precision.Type) *Buffer {
	out, err := q.DeviceConvert(src, dst)
	if err != nil {
		panic(err)
	}
	return out
}

// DeviceConvertDirected is DeviceConvert but tags the event with the
// transfer direction it serves, for trace attribution.
func (q *Queue) DeviceConvertDirected(src *Buffer, dst precision.Type, dir Dir) (*Buffer, error) {
	return q.deviceConvert(src, dst, dir)
}

// deviceConvert records the conversion with its direction already set,
// so hooks observe the same event that ends up in the queue's trace
// (patching the direction after record would let hooks see a stale one).
// A conversion is a kernel: it draws from the launch fault stream, and
// its staging allocation from the alloc stream.
func (q *Queue) deviceConvert(src *Buffer, dst precision.Type, dir Dir) (*Buffer, error) {
	if err := q.ctx.preOp(fault.Launch, "convert", src.name); err != nil {
		return nil, err
	}
	out, err := q.ctx.CreateBuffer(src.name, dst, src.Len())
	if err != nil {
		return nil, err
	}
	out.arr.CopyFrom(src.arr)
	q.record(Event{
		Kind: EvDeviceConvert, Dir: dir,
		Duration: DeviceConvertTime(q.ctx.sys, src.Len(), src.Elem(), dst),
		Buffer:   out.id, Elems: src.Len(),
		Bytes: src.Bytes() + out.Bytes(),
		Src:   src.Elem(), Dst: dst,
	})
	return out, nil
}

// DeviceConvertTime is the pure timing model behind DeviceConvert,
// exposed so the system inspector and expected-time queries share the
// exact cost the runtime charges.
func DeviceConvertTime(sys *hw.System, n int, src, dst precision.Type) float64 {
	g := &sys.GPU
	compute := float64(n) / (g.ConvPerCycleSM * float64(g.SMs) * g.ClockMHz * 1e6)
	mem := g.MemoryTime(float64(n * (src.Size() + dst.Size())))
	t := compute
	if mem > t {
		t = mem
	}
	return t + g.LaunchLatency()
}

// Launch executes a kernel program over the NDRange, charging roofline
// time derived from its dynamic counts. computeAs optionally supplies the
// In-Kernel scaling view (see kir.ExecEnv.ComputeAs); pass nil for plain
// execution at buffer precision.
func (q *Queue) Launch(p *kir.Program, global [2]int, bufs []*Buffer, intArgs []int64, computeAs []precision.Type) error {
	if err := q.ctx.preOp(fault.Launch, "launch", p.Kernel.Name); err != nil {
		return err
	}
	arrs := make([]*precision.Array, len(bufs))
	ids := make([]int, len(bufs))
	for i, b := range bufs {
		arrs[i] = b.arr
		ids[i] = b.id
	}
	counts, err := p.Run(&kir.ExecEnv{
		Bufs:      arrs,
		ComputeAs: computeAs,
		IntArgs:   intArgs,
		Global:    global,
	})
	if err != nil {
		return &Error{Status: StatusInvalidKernelArgs, Op: "launch", Detail: p.Kernel.Name, Err: err}
	}
	q.record(Event{
		Kind: EvKernel, Dir: DirNone,
		Duration:   kir.KernelTime(&q.ctx.sys.GPU, counts),
		Buffer:     -1,
		Kernel:     p.Kernel.Name,
		ArgBuffers: ids,
		Counts:     counts,
	})
	q.maybePoison(p, bufs)
	return nil
}

// maybePoison implements the "nan" fault kind: after a successful
// launch, a trip silently overwrites one element of one kernel-written
// buffer with NaN. No error is produced — the corruption surfaces later
// as a quality (TOQ) failure, exactly like silent data corruption on
// real hardware.
func (q *Queue) maybePoison(p *kir.Program, bufs []*Buffer) {
	c := q.ctx
	if c.inj == nil || c.lost || !c.inj.Trip(fault.NaN) {
		return
	}
	written := p.WrittenParams()
	var cands []*Buffer
	for i, b := range bufs {
		if i < len(written) && written[i] && b.Len() > 0 {
			cands = append(cands, b)
		}
	}
	if len(cands) == 0 {
		return
	}
	b := cands[c.inj.Pick(len(cands))]
	b.arr.Data()[c.inj.Pick(b.Len())] = math.NaN()
	// The poisoned contents no longer match any version the incremental
	// evaluator may have tagged; drop the tag. (The evaluator is disabled
	// under injection anyway — this keeps the invariant locally true.)
	b.contentVersion = 0
}

// Breakdown sums the trace into the paper's three phases: host-to-device
// time (transfers plus conversions serving HtoD), kernel time, and
// device-to-host time.
func (q *Queue) Breakdown() (htod, kernel, dtoh float64) {
	for _, e := range q.events {
		switch {
		case e.Kind == EvKernel:
			kernel += e.Duration
		case e.Dir == DirHtoD:
			htod += e.Duration
		case e.Dir == DirDtoH:
			dtoh += e.Duration
		default:
			// Undirected conversions count toward HtoD by convention.
			htod += e.Duration
		}
	}
	return htod, kernel, dtoh
}
