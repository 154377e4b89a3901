// Package prog defines the data-parallel program abstraction the
// framework scales: a Workload (memory objects, kernels, input
// generators, and a host-program script), the memory-object-level scaling
// Config that PreScaler searches over, and the executor that runs a
// workload under a configuration on a simulated system, producing timing,
// a trace, and the program outputs for quality evaluation.
//
// A Config assigns every memory object a target precision and, for each
// of its host<->device transfer events, a conversion Plan (host method,
// thread count, wire type). The special InKernel mode keeps the object's
// buffer at the original precision and instead lowers the precision of
// kernel arithmetic with in-kernel casts — the Precimonious-style
// baseline the paper compares against.
package prog

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/convert"
	"repro/internal/hw"
	"repro/internal/kir"
	"repro/internal/ocl"
	"repro/internal/precision"
)

// InputSet selects one of the paper's three input data distributions
// (Table 4): the benchmark-specific default ranges, image pixel data
// (0-255), and uniform random data in [0, 1).
type InputSet uint8

const (
	// InputDefault uses the benchmark's own value ranges.
	InputDefault InputSet = iota
	// InputImage uses synthetic image pixel data in [0, 256).
	InputImage
	// InputRandom uses uniform values in [0, 1).
	InputRandom
)

func (s InputSet) String() string {
	switch s {
	case InputDefault:
		return "default"
	case InputImage:
		return "image"
	case InputRandom:
		return "random"
	default:
		return fmt.Sprintf("InputSet(%d)", uint8(s))
	}
}

// InputSets lists all input sets in paper order.
var InputSets = []InputSet{InputDefault, InputImage, InputRandom}

// ParseInputSet maps the canonical lowercase name — "default", "image",
// or "random" — back to its InputSet, the inverse of String. It is the
// single parser the CLI flags and the service wire layer share, so the
// accepted spellings cannot drift between entry points.
func ParseInputSet(name string) (InputSet, error) {
	for _, s := range InputSets {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("prog: unknown input set %q (want default, image, or random)", name)
}

// ObjKind classifies a memory object's role in the program.
type ObjKind uint8

const (
	// ObjInput objects are written host-to-device.
	ObjInput ObjKind = iota
	// ObjOutput objects are produced by kernels and read back.
	ObjOutput
	// ObjInOut objects are both written and read back.
	ObjInOut
	// ObjTemp objects live only on the device.
	ObjTemp
)

func (k ObjKind) String() string {
	switch k {
	case ObjInput:
		return "in"
	case ObjOutput:
		return "out"
	case ObjInOut:
		return "inout"
	default:
		return "temp"
	}
}

// ObjectSpec declares one memory object of a workload.
type ObjectSpec struct {
	Name string
	Len  int
	Kind ObjKind
}

// Workload is a complete data-parallel program.
type Workload struct {
	Name string
	// Original is the unscaled element precision (Double for Polybench).
	Original precision.Type
	// Objects lists the memory objects in creation order.
	Objects []ObjectSpec
	// Kernels maps kernel names to compiled programs.
	Kernels map[string]*kir.Program
	// MakeInputs returns host data for every Input/InOut object. It must
	// be deterministic per input set, and each call must return fresh
	// slices: the executor takes them over, rounds them in place and
	// shares them between runs, so the generator must not keep them.
	MakeInputs func(set InputSet) map[string][]float64
	// Script drives the program: writes, launches, reads.
	Script func(x *Exec) error
	// InputBytes is the nominal input size reported in Table 4.
	InputBytes int
	// DefaultRange documents the default input value range of Table 4.
	DefaultRange [2]float64
}

// Object returns the spec for name, or nil.
func (w *Workload) Object(name string) *ObjectSpec {
	for i := range w.Objects {
		if w.Objects[i].Name == name {
			return &w.Objects[i]
		}
	}
	return nil
}

// OutputNames returns the names of objects read back to the host, in
// declaration order.
func (w *Workload) OutputNames() []string {
	var out []string
	for _, o := range w.Objects {
		if o.Kind == ObjOutput || o.Kind == ObjInOut {
			out = append(out, o.Name)
		}
	}
	return out
}

// ObjectConfig is the scaling decision for one memory object.
type ObjectConfig struct {
	// Target is the object's scaled precision. In memory-object mode the
	// device buffer is allocated at Target; in InKernel mode the buffer
	// stays at the original precision and kernels compute at Target
	// through inserted casts.
	Target precision.Type
	// InKernel selects the kernel-level (Precimonious-style) mode.
	InKernel bool
	// Plans holds one conversion plan per transfer event of this object,
	// in occurrence order. Missing entries fall back to DefaultPlan.
	Plans []convert.Plan
}

// Config is a complete scaling configuration for a workload.
type Config struct {
	Objects map[string]ObjectConfig
}

// NewConfig returns a configuration with every object at precision t and
// default (direct) conversion plans.
func NewConfig(w *Workload, t precision.Type) *Config {
	c := &Config{Objects: map[string]ObjectConfig{}}
	for _, o := range w.Objects {
		c.Objects[o.Name] = ObjectConfig{Target: t}
	}
	return c
}

// Baseline returns the identity configuration: every object at the
// workload's original precision.
func Baseline(w *Workload) *Config { return NewConfig(w, w.Original) }

// Clone deep-copies the configuration.
func (c *Config) Clone() *Config {
	out := &Config{Objects: make(map[string]ObjectConfig, len(c.Objects))}
	for k, v := range c.Objects {
		plans := make([]convert.Plan, len(v.Plans))
		copy(plans, v.Plans)
		v.Plans = plans
		out.Objects[k] = v
	}
	return out
}

// TypeDist returns how many memory objects the configuration puts at
// each precision.
func (c Config) TypeDist() map[precision.Type]int {
	out := map[precision.Type]int{}
	for _, oc := range c.Objects {
		out[oc.Target]++
	}
	return out
}

// ConvDist returns how many of w's transfer events the configuration
// converts with each conversion class (none / host / device / transient
// / pipelined).
func (c Config) ConvDist(w *Workload) map[string]int {
	out := map[string]int{}
	for name, oc := range c.Objects {
		if w.Object(name) == nil {
			continue
		}
		storage := oc.Target
		if oc.InKernel {
			storage = w.Original
		}
		for _, p := range oc.Plans {
			out[p.Class(w.Original, storage)]++
		}
	}
	return out
}

// ConfigKeyer builds canonical keys for one workload's configurations:
// two configurations get one key exactly when they set every object of
// the workload alike. The sorted object-name list is computed once, and
// keys use a compact binary encoding (precision and method bytes,
// little-endian thread counts) instead of formatted text. Key writes no
// shared state, so concurrent goroutines may call it.
type ConfigKeyer struct {
	names []string
}

// NewConfigKeyer returns the keyer for w's configurations.
func NewConfigKeyer(w *Workload) *ConfigKeyer {
	names := make([]string, 0, len(w.Objects))
	for _, o := range w.Objects {
		names = append(names, o.Name)
	}
	sort.Strings(names)
	return &ConfigKeyer{names: names}
}

// Key returns c's canonical key.
func (k *ConfigKeyer) Key(c *Config) string { return string(k.appendKey(nil, c)) }

func (k *ConfigKeyer) appendKey(b []byte, c *Config) []byte {
	n := len(b)
	for _, name := range k.names {
		n += len(name) + 5 + 4*len(c.Objects[name].Plans)
	}
	b = append(make([]byte, 0, n), b...)
	for _, name := range k.names {
		oc := c.Objects[name]
		b = append(b, name...)
		ik := byte(0)
		if oc.InKernel {
			ik = 1
		}
		b = append(b, 0, byte(oc.Target), ik, byte(len(oc.Plans)))
		for _, p := range oc.Plans {
			b = append(b, byte(p.Host), byte(p.Mid), byte(p.Threads), byte(p.Threads>>8))
		}
		b = append(b, ';')
	}
	return b
}

// Target returns the configured precision for obj, defaulting to orig.
func (c *Config) Target(obj string, orig precision.Type) precision.Type {
	if oc, ok := c.Objects[obj]; ok && oc.Target.Valid() {
		return oc.Target
	}
	return orig
}

// DefaultPlan is the conversion plan used when a configuration does not
// specify one: direct transfer when no conversion is needed, otherwise
// host-side multithreaded conversion with one worker per logical CPU
// thread (the paper's PFP setting).
func DefaultPlan(cpu *hw.CPU, hostType, wireTarget precision.Type) convert.Plan {
	if hostType == wireTarget {
		return convert.Direct(hostType)
	}
	return convert.Plan{Host: convert.MethodMT, Threads: cpu.Threads, Mid: wireTarget}
}

// OpKind classifies executor trace operations.
type OpKind uint8

const (
	// OpWrite is a host-to-device transfer of an object.
	OpWrite OpKind = iota
	// OpRead is a device-to-host transfer of an object.
	OpRead
	// OpKernel is a kernel launch.
	OpKernel
)

func (k OpKind) String() string {
	switch k {
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	default:
		return "kernel"
	}
}

// Op is one entry of the object-level execution trace.
type Op struct {
	Kind OpKind
	// Object is the memory object for transfers.
	Object string
	// Kernel and Args describe kernel launches (Args are object names in
	// kernel argument order).
	Kernel string
	Args   []string
	// Elems is the element count moved (transfers).
	Elems int
	// EventIndex is the ordinal of this transfer among the object's
	// transfer events (0-based).
	EventIndex int
	// Duration is the simulated time this operation took.
	Duration float64
	// Counts holds kernel dynamic counts for OpKernel.
	Counts kir.Counts
}

// Result is the outcome of one execution trial.
type Result struct {
	// Total is the simulated end-to-end program time.
	Total float64
	// KernelTime, HtoDTime and DtoHTime decompose Total.
	KernelTime float64
	HtoDTime   float64
	DtoHTime   float64
	// Outputs holds the read-back objects at the workload's original
	// precision, keyed by object name.
	Outputs map[string]*precision.Array
	// Ops is the object-level trace.
	Ops []Op
	// Events is the underlying runtime trace.
	Events []ocl.Event
}

// TransferTime returns HtoD + DtoH time.
func (r *Result) TransferTime() float64 { return r.HtoDTime + r.DtoHTime }

// clone returns a copy of r that shares nothing a caller may write: fresh
// views of the outputs and copies of the op and event traces.
func (r *Result) clone() *Result {
	c := *r
	c.Outputs = make(map[string]*precision.Array, len(r.Outputs))
	for name, a := range r.Outputs {
		c.Outputs[name] = a.Share()
	}
	c.Ops = append([]Op(nil), r.Ops...)
	c.Events = append([]ocl.Event(nil), r.Events...)
	return &c
}

// Exec is the executor handle passed to a workload's Script.
type Exec struct {
	w       *Workload
	sys     *hw.System
	cfg     *Config
	ctx     *ocl.Context
	q       *ocl.Queue
	hosts   map[string]*precision.Array
	bufs    map[string]*ocl.Buffer
	outputs map[string]*precision.Array
	evIdx   map[string]int
	ops     []Op
	// incremental evaluation state (nil cache = plain execution):
	// every buffer the run creates, and the number of events recorded
	// before each
	cache     *EvalCache
	set       InputSet
	created   []*ocl.Buffer
	createdAt []int
}

// Run executes w on sys with input set and scaling configuration cfg
// (nil means baseline), returning the result. Optional runtime hooks
// (profilers, tracers) are attached to the execution's context before
// the script runs; nil hooks are skipped, so observability call sites
// can pass a possibly-nil hook unconditionally.
func Run(sys *hw.System, w *Workload, set InputSet, cfg *Config, hooks ...ocl.Hook) (*Result, error) {
	return RunWithCache(sys, w, set, cfg, nil, hooks...)
}

// RunWithCache is Run with an optional shared incremental-evaluation
// cache (see EvalCache): a configuration the cache has run before on the
// same input set is replayed whole, and program ops whose inputs match a
// previously recorded execution are spliced from the cache instead of
// re-executing, with bit-identical outputs, events, timing and hook
// callbacks either way. A nil cache means plain execution, and so does a
// cache that does not serve sys (EvalCache.Serves: timing jitter or fault
// injection).
func RunWithCache(sys *hw.System, w *Workload, set InputSet, cfg *Config, cache *EvalCache, hooks ...ocl.Hook) (*Result, error) {
	if !cache.Serves(sys) {
		cache = nil
	}
	if cache != nil {
		if err := cache.bind(sys, w); err != nil {
			return nil, err
		}
	}
	if cfg == nil {
		cfg = Baseline(w)
	}
	var runKey string
	if cache != nil {
		runKey = cache.runKey(set, cfg)
		if e := cache.lookupRun(runKey); e != nil {
			return e.replay(sys, hooks), nil
		}
	}
	x := &Exec{
		w:       w,
		sys:     sys,
		cfg:     cfg,
		ctx:     ocl.NewContext(sys),
		bufs:    map[string]*ocl.Buffer{},
		outputs: map[string]*precision.Array{},
		evIdx:   map[string]int{},
		cache:   cache,
		set:     set,
	}
	if cache != nil {
		x.hosts = cache.hostsFor(w, set)
		x.ctx.AddHook(createdRecorder{x})
	} else {
		x.hosts = hostInputs(w, set)
	}
	for _, h := range hooks {
		if h != nil {
			x.ctx.AddHook(h)
		}
	}
	x.q = ocl.NewQueue(x.ctx)
	if err := w.Script(x); err != nil {
		return nil, fmt.Errorf("prog: %s: %w", w.Name, err)
	}
	res := &Result{
		Total:   x.q.Now(),
		Outputs: x.outputs,
		Ops:     x.ops,
		Events:  x.q.Events(),
	}
	htod, kernel, dtoh := x.q.Breakdown()
	res.HtoDTime, res.KernelTime, res.DtoHTime = htod, kernel, dtoh
	if cache != nil {
		cache.storeRun(runKey, res, x.created, x.createdAt)
	}
	return res, nil
}

// hostInputs generates w's inputs for set and rounds each, in place, to
// the original precision, frozen so that every write shares it instead
// of copying it.
func hostInputs(w *Workload, set InputSet) map[string]*precision.Array {
	raw := w.MakeInputs(set)
	m := make(map[string]*precision.Array, len(raw))
	for obj, data := range raw {
		m[obj] = precision.Wrap(w.Original, data).Freeze()
	}
	return m
}

// objectConfig returns the configuration for obj with defaults filled in.
func (x *Exec) objectConfig(obj string) ObjectConfig {
	oc := x.cfg.Objects[obj]
	if !oc.Target.Valid() {
		oc.Target = x.w.Original
	}
	return oc
}

// storageType returns the device storage precision for obj.
func (x *Exec) storageType(oc ObjectConfig) precision.Type {
	if oc.InKernel {
		return x.w.Original
	}
	return oc.Target
}

// nextPlan pops the conversion plan for obj's next transfer event.
func (x *Exec) nextPlan(obj string, oc ObjectConfig, hostType, storage precision.Type) (convert.Plan, int) {
	i := x.evIdx[obj]
	x.evIdx[obj] = i + 1
	if i < len(oc.Plans) {
		return oc.Plans[i], i
	}
	return DefaultPlan(&x.sys.CPU, hostType, storage), i
}

// Write transfers the named input object host-to-device under its
// configured plan, creating the device buffer.
func (x *Exec) Write(obj string) error {
	spec := x.w.Object(obj)
	if spec == nil {
		return fmt.Errorf("write: unknown object %q", obj)
	}
	host, ok := x.hosts[obj]
	if !ok {
		return fmt.Errorf("write: no input data for object %q", obj)
	}
	if host.Len() != spec.Len {
		return fmt.Errorf("write: object %q input has %d elements, spec says %d", obj, host.Len(), spec.Len)
	}
	oc := x.objectConfig(obj)
	storage := x.storageType(oc)
	plan, evIdx := x.nextPlan(obj, oc, x.w.Original, storage)

	before := x.q.Now()
	var buf *ocl.Buffer
	if x.cache != nil {
		key := writeOpKey(x.set, obj, spec.Len, x.w.Original, storage, plan)
		if e, ok := x.cache.lookup(key); ok {
			buf = x.replayEntry(e, nil, nil)[e.final]
		} else {
			cs, es := len(x.created), x.q.NumEvents()
			b, err := convert.ExecuteHtoD(x.q, obj, host, storage, plan)
			if err != nil {
				return fmt.Errorf("write %q: %w", obj, err)
			}
			buf = b
			ver := x.cache.nextVersion()
			buf.SetContentVersion(ver)
			x.captureWrite(key, cs, es, buf, ver)
		}
	} else {
		b, err := convert.ExecuteHtoD(x.q, obj, host, storage, plan)
		if err != nil {
			return fmt.Errorf("write %q: %w", obj, err)
		}
		buf = b
	}
	x.bufs[obj] = buf
	x.ops = append(x.ops, Op{
		Kind: OpWrite, Object: obj, Elems: spec.Len,
		EventIndex: evIdx, Duration: x.q.Now() - before,
	})
	return nil
}

// ensureBuffer returns the device buffer for obj, creating a zeroed one
// (outputs, temps) on first use.
func (x *Exec) ensureBuffer(obj string) (*ocl.Buffer, error) {
	if b, ok := x.bufs[obj]; ok {
		return b, nil
	}
	spec := x.w.Object(obj)
	if spec == nil {
		return nil, fmt.Errorf("unknown object %q", obj)
	}
	if spec.Kind == ObjInput || spec.Kind == ObjInOut {
		return nil, fmt.Errorf("object %q used before Write", obj)
	}
	oc := x.objectConfig(obj)
	b, err := x.ctx.CreateBuffer(obj, x.storageType(oc), spec.Len)
	if err != nil {
		return nil, err
	}
	if x.cache != nil {
		// All zero-filled buffers of one shape share a content version.
		b.SetContentVersion(x.cache.zeroVersion(b.Elem(), b.Len()))
	}
	x.bufs[obj] = b
	return b, nil
}

// Launch runs the named kernel over global with the given object names
// bound as buffer arguments.
func (x *Exec) Launch(kernel string, global [2]int, objs []string, intArgs ...int64) error {
	p, ok := x.w.Kernels[kernel]
	if !ok {
		return fmt.Errorf("launch: unknown kernel %q", kernel)
	}
	bufs := make([]*ocl.Buffer, len(objs))
	var computeAs []precision.Type
	for i, obj := range objs {
		b, err := x.ensureBuffer(obj)
		if err != nil {
			return fmt.Errorf("launch %q: %w", kernel, err)
		}
		bufs[i] = b
		oc := x.objectConfig(obj)
		if oc.InKernel && oc.Target != x.w.Original {
			if computeAs == nil {
				computeAs = make([]precision.Type, len(objs))
			}
			computeAs[i] = oc.Target
		}
	}
	before := x.q.Now()
	if x.cache == nil {
		if err := x.q.Launch(p, global, bufs, intArgs, computeAs); err != nil {
			return err
		}
	} else if key, keyed := launchOpKey(kernel, global, intArgs, bufs, computeAs); keyed {
		if e, hit := x.cache.lookup(key); hit {
			x.replayEntry(e, nil, bufs)
		} else {
			cs, es := len(x.created), x.q.NumEvents()
			if err := x.q.Launch(p, global, bufs, intArgs, computeAs); err != nil {
				// The kernel may have partially written its outputs
				// before failing; their contents no longer match any
				// recorded version.
				x.freshenWritten(p, bufs)
				return err
			}
			wp := p.WrittenParams()
			var outs []outSpec
			for i, b := range bufs {
				if i < len(wp) && wp[i] {
					v := x.cache.nextVersion()
					b.SetContentVersion(v)
					outs = append(outs, outSpec{arg: i, data: b.Array().Share(), version: v})
				}
			}
			x.captureLaunch(key, cs, es, outs)
		}
	} else {
		// An argument buffer is unversioned: run live and invalidate the
		// written arguments so no stale key can match them.
		err := x.q.Launch(p, global, bufs, intArgs, computeAs)
		x.freshenWritten(p, bufs)
		if err != nil {
			return err
		}
	}
	ev := x.q.LastEvent()
	args := make([]string, len(objs))
	copy(args, objs)
	x.ops = append(x.ops, Op{
		Kind: OpKernel, Kernel: kernel, Args: args,
		Duration: x.q.Now() - before, Counts: ev.Counts,
	})
	return nil
}

// Read transfers the named object back to the host at the original
// precision under its configured plan.
func (x *Exec) Read(obj string) error {
	b, ok := x.bufs[obj]
	if !ok {
		return fmt.Errorf("read: object %q has no device buffer", obj)
	}
	oc := x.objectConfig(obj)
	plan, evIdx := x.nextPlan(obj, oc, x.w.Original, b.Elem())

	before := x.q.Now()
	var host *precision.Array
	if x.cache != nil && b.ContentVersion() != 0 {
		key := readOpKey(obj, b.Elem(), b.Len(), b.ContentVersion(), x.w.Original, plan)
		if e, hit := x.cache.lookup(key); hit {
			x.replayEntry(e, b, nil)
			host = e.host
		} else {
			cs, es := len(x.created), x.q.NumEvents()
			h, err := convert.ExecuteDtoH(x.q, b, x.w.Original, plan)
			if err != nil {
				return fmt.Errorf("read %q: %w", obj, err)
			}
			host = h
			x.captureRead(key, cs, es, b, h)
		}
	} else {
		h, err := convert.ExecuteDtoH(x.q, b, x.w.Original, plan)
		if err != nil {
			return fmt.Errorf("read %q: %w", obj, err)
		}
		host = h
	}
	// Every output is a frozen view, cached or not, so results compare
	// equal field by field and a caller's write forks only its own view.
	x.outputs[obj] = host.Share()
	x.ops = append(x.ops, Op{
		Kind: OpRead, Object: obj, Elems: b.Len(),
		EventIndex: evIdx, Duration: x.q.Now() - before,
	})
	return nil
}

// Quality compares the outputs of res against the reference outputs,
// returning 1 - mean relative error over all output elements.
func Quality(ref, res *Result) float64 {
	return QualityNamed(SortedOutputNames(ref), ref, res)
}

// SortedOutputNames returns ref's output object names in sorted order.
// Callers evaluating many trials against one reference hoist this out of
// the loop and pass the result to QualityNamed.
func SortedOutputNames(ref *Result) []string {
	names := make([]string, 0, len(ref.Outputs))
	for name := range ref.Outputs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// scoreHook, set only by tests, sees every QualityNamed call: each one
// computes the element errors of every named output.
var scoreHook func(names []string, ref, res *Result)

// QualityNamed is Quality with the sorted reference output names supplied
// by the caller. It streams the error sum in a single pass per output
// array, allocating nothing; the accumulation order (sorted names, then
// element order) matches Quality exactly, so both return bit-identical
// values. Degraded outputs fail deterministically rather than poisoning
// the comparison: a missing output, or one whose length does not match
// the reference (a truncated or corrupted result), counts as total loss
// for that object — each reference element compares against zero — and
// non-finite elements on either side score the maximum per-element error
// through precision.ElementError, so the returned quality is always a
// finite value in [0, 1] and NaN/Inf-poisoned outputs simply fail TOQ.
func QualityNamed(names []string, ref, res *Result) float64 {
	if scoreHook != nil {
		scoreHook(names, ref, res)
	}
	var sum float64
	var n int
	for _, name := range names {
		rd := ref.Outputs[name].Values()
		if g, ok := res.Outputs[name]; ok && g.Len() == len(rd) {
			gd := g.Values()
			for i := range rd {
				sum += precision.ElementError(rd[i], gd[i])
			}
		} else {
			for i := range rd {
				sum += precision.ElementError(rd[i], 0)
			}
		}
		n += len(rd)
	}
	if n == 0 {
		return 1
	}
	q := 1 - sum/float64(n)
	if q < 0 || math.IsNaN(q) {
		return 0
	}
	return q
}
