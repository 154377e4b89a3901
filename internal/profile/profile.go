// Package profile implements PreScaler's Application Profiler: it runs
// the target program once at its original precision, records kernel,
// memory-object and event information through the runtime trace (the
// analog of the paper's link-time API interposition of Table 2), and
// derives each memory object's effective execution time — the sum of the
// durations of its related events — which fixes the order in which the
// decision maker visits objects.
package profile

import (
	"fmt"
	"sort"

	"repro/internal/hw"
	"repro/internal/ocl"
	"repro/internal/prog"
)

// TransferEvent describes one host<->device transfer of a memory object.
type TransferEvent struct {
	// Dir is the transfer direction.
	Dir ocl.Dir
	// Elems is the number of elements moved.
	Elems int
	// Index is the ordinal among the object's transfer events.
	Index int
	// Duration is the baseline duration of the event.
	Duration float64
}

// ObjectInfo aggregates profiling data for one memory object.
type ObjectInfo struct {
	Name string
	Len  int
	Kind prog.ObjKind
	// Transfers lists the object's transfer events in occurrence order.
	Transfers []TransferEvent
	// KernelTime is the summed duration of kernel launches that bind the
	// object.
	KernelTime float64
	// EffectiveTime is transfer time + kernel time — the sort key of the
	// decision tree.
	EffectiveTime float64
}

// TransferTime returns the summed duration of the object's transfers.
func (o *ObjectInfo) TransferTime() float64 {
	var s float64
	for _, t := range o.Transfers {
		s += t.Duration
	}
	return s
}

// KernelInfo aggregates profiling data for one kernel.
type KernelInfo struct {
	Name string
	// Launches is the number of launches observed.
	Launches int
	// Duration is the summed baseline duration.
	Duration float64
	// Args lists the object names bound on the first launch.
	Args []string
}

// AppInfo is the profiler's output for one application.
type AppInfo struct {
	Workload string
	// Objects holds per-object info sorted by descending effective time
	// (the decision maker's visit order).
	Objects []ObjectInfo
	// Kernels holds per-kernel info sorted by name.
	Kernels []KernelInfo
	// Baseline timing decomposition.
	HtoDTime   float64
	KernelTime float64
	DtoHTime   float64
	Total      float64
}

// Object returns the profiled info for name, or nil.
func (a *AppInfo) Object(name string) *ObjectInfo {
	for i := range a.Objects {
		if a.Objects[i].Name == name {
			return &a.Objects[i]
		}
	}
	return nil
}

// TransferFraction returns the fraction of baseline time spent on data
// transfer — the paper's data-intensive vs computation-intensive
// categorization (Figure 4).
func (a *AppInfo) TransferFraction() float64 {
	if a.Total == 0 {
		return 0
	}
	return (a.HtoDTime + a.DtoHTime) / a.Total
}

// Profile runs w once at original precision on sys with the given input
// set and returns the application info along with the baseline result.
// An optional shared incremental-evaluation cache lets the baseline run
// both seed and benefit from op results shared with the search trials;
// a nil cache means plain execution. Optional runtime hooks are attached
// to the profiling execution (nil hooks are skipped).
func Profile(sys *hw.System, w *prog.Workload, set prog.InputSet, cache *prog.EvalCache, hooks ...ocl.Hook) (*AppInfo, *prog.Result, error) {
	res, err := prog.RunWithCache(sys, w, set, nil, cache, hooks...)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	info := FromResult(w, res)
	return info, res, nil
}

// FromResult derives application info from an existing baseline result.
func FromResult(w *prog.Workload, res *prog.Result) *AppInfo {
	objects := map[string]*ObjectInfo{}
	for _, spec := range w.Objects {
		objects[spec.Name] = &ObjectInfo{Name: spec.Name, Len: spec.Len, Kind: spec.Kind}
	}
	kernels := map[string]*KernelInfo{}

	for _, op := range res.Ops {
		switch op.Kind {
		case prog.OpWrite, prog.OpRead:
			o := objects[op.Object]
			if o == nil {
				continue
			}
			dir := ocl.DirHtoD
			if op.Kind == prog.OpRead {
				dir = ocl.DirDtoH
			}
			o.Transfers = append(o.Transfers, TransferEvent{
				Dir: dir, Elems: op.Elems, Index: op.EventIndex, Duration: op.Duration,
			})
		case prog.OpKernel:
			k := kernels[op.Kernel]
			if k == nil {
				k = &KernelInfo{Name: op.Kernel, Args: append([]string(nil), op.Args...)}
				kernels[op.Kernel] = k
			}
			k.Launches++
			k.Duration += op.Duration
			// Attribute the kernel duration to each distinct bound object.
			seen := map[string]bool{}
			for _, arg := range op.Args {
				if seen[arg] {
					continue
				}
				seen[arg] = true
				if o := objects[arg]; o != nil {
					o.KernelTime += op.Duration
				}
			}
		}
	}

	info := &AppInfo{
		Workload:   w.Name,
		HtoDTime:   res.HtoDTime,
		KernelTime: res.KernelTime,
		DtoHTime:   res.DtoHTime,
		Total:      res.Total,
	}
	for _, spec := range w.Objects {
		o := objects[spec.Name]
		o.EffectiveTime = o.TransferTime() + o.KernelTime
		info.Objects = append(info.Objects, *o)
	}
	sort.SliceStable(info.Objects, func(i, j int) bool {
		return info.Objects[i].EffectiveTime > info.Objects[j].EffectiveTime
	})
	for _, k := range kernels {
		info.Kernels = append(info.Kernels, *k)
	}
	sort.Slice(info.Kernels, func(i, j int) bool { return info.Kernels[i].Name < info.Kernels[j].Name })
	return info
}
