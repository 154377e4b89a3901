// Customapp: applying PreScaler to your own program (artifact §A.7).
//
// The framework is not tied to Polybench: any data-parallel program
// expressed as a prog.Workload — memory objects, kernels in the kir IR,
// and a host script — can be profiled and scaled. This example builds a
// small two-stage image pipeline (3x3 blur, then gain+bias tone mapping),
// scales it on System 3, prints the decision, and writes a Chrome
// trace-event timeline of the scaled execution to prescaler-trace.json
// (open it in chrome://tracing or Perfetto).
//
//	go run ./examples/customapp
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/clc"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/kir"
	"repro/internal/obs"
	"repro/internal/precision"
	"repro/internal/prog"
	"repro/internal/scaler"
)

// blurSrc is the blur stage written as plain OpenCL C; the clc frontend
// compiles it to the same IR the builder API produces.
const blurSrc = `
__kernel void blur(__global const double* img, __global double* tmp, int n) {
	int i = get_global_id(0);
	int j = get_global_id(1);
	if (i >= 1 && i < n - 1 && j >= 1 && j < n - 1) {
		tmp[i*n + j] = (1.0 / 9.0) * (
			img[(i-1)*n + (j-1)] + img[(i-1)*n + j] + img[(i-1)*n + (j+1)] +
			img[i*n + (j-1)]     + img[i*n + j]     + img[i*n + (j+1)] +
			img[(i+1)*n + (j-1)] + img[(i+1)*n + j] + img[(i+1)*n + (j+1)]);
	}
}
`

// buildPipeline defines the custom workload: img -> blur -> tone -> out.
func buildPipeline(n int) *prog.Workload {
	blur := clc.MustParseOne(blurSrc).Kernel

	tone := kir.NewKernel("tone", 1).In("tmp").Out("out").
		Body(
			// out = clamp(1.2*x + 4, 0, 255)
			kir.Put("out", kir.Gid(0),
				kir.Min(kir.Max(kir.Add(kir.Mul(kir.F(1.2), kir.At("tmp", kir.Gid(0))), kir.F(4)), kir.F(0)), kir.F(255))),
		).MustBuild()

	sz := n * n
	return &prog.Workload{
		Name:         "imagepipe",
		Original:     precision.Double,
		InputBytes:   sz * 8,
		DefaultRange: [2]float64{0, 256},
		Objects: []prog.ObjectSpec{
			{Name: "img", Len: sz, Kind: prog.ObjInput},
			{Name: "tmp", Len: sz, Kind: prog.ObjTemp},
			{Name: "out", Len: sz, Kind: prog.ObjOutput},
		},
		Kernels: map[string]*kir.Program{
			"blur": kir.MustCompile(blur),
			"tone": kir.MustCompile(tone),
		},
		MakeInputs: func(set prog.InputSet) map[string][]float64 {
			img := make([]float64, sz)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					// A deterministic synthetic photo: smooth gradients
					// plus texture, in pixel range.
					img[i*n+j] = float64((i*7+j*13)%251) * 0.9
				}
			}
			return map[string][]float64{"img": img}
		},
		Script: func(x *prog.Exec) error {
			if err := x.Write("img"); err != nil {
				return err
			}
			if err := x.Launch("blur", [2]int{n, n}, []string{"img", "tmp"}, int64(n)); err != nil {
				return err
			}
			if err := x.Launch("tone", [2]int{sz, 1}, []string{"tmp", "out"}); err != nil {
				return err
			}
			return x.Read("out")
		},
	}
}

func main() {
	w := buildPipeline(1024) // an 8 MB image
	sys := hw.System3()
	fmt.Printf("inspecting %s...\n", sys.Name)
	fw := core.NewFramework(sys)

	sp, err := fw.Scale(context.Background(), w, scaler.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(sp.Describe())

	// Run the scaled program once more with an observer's runtime hook
	// attached: it turns each runtime event into a span on the host, bus
	// or device row of the trace.
	o := obs.New()
	res, err := prog.Run(sys, sp.Workload, prog.InputDefault, sp.Config, o.RunHook())
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Create("prescaler-trace.json")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := o.Tracer().WriteChromeTrace(f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote %d trace events to prescaler-trace.json (open in chrome://tracing)\n", len(res.Events))
}
