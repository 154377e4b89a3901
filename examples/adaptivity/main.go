// Adaptivity: input sets and TOQ change the chosen configuration.
//
// The CORR benchmark standardizes its data columns and accumulates
// squared deviations: with the default 0-2047 input range the variance
// accumulator overflows binary16, so half precision fails the quality
// target and the decision maker backs off to single — while random
// 0-1 inputs keep every intermediate in range and unlock half for most
// objects. Tightening the target output quality from 0.90 toward 0.999
// pushes objects back up the precision ladder. This is the Figure 12
// story made visible on one application.
//
//	go run ./examples/adaptivity
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/polybench"
	"repro/internal/precision"
	"repro/internal/prog"
	"repro/internal/scaler"
)

func main() {
	sys := hw.System1()
	fmt.Printf("inspecting %s...\n", sys.Name)
	fw := core.NewFramework(sys)
	w := polybench.Corr(160, 160)

	fmt.Println("\n-- input-set adaptivity (TOQ 0.90) --")
	for _, set := range prog.InputSets {
		sp, err := fw.Scale(context.Background(), w, scaler.Options{TOQ: 0.90, InputSet: set})
		if err != nil {
			log.Fatal(err)
		}
		report(string("input "+set.String()), sp)
	}

	fmt.Println("\n-- TOQ adaptivity (random input) --")
	for _, toq := range []float64{0.90, 0.99, 0.999} {
		sp, err := fw.Scale(context.Background(), w, scaler.Options{TOQ: toq, InputSet: prog.InputRandom})
		if err != nil {
			log.Fatal(err)
		}
		report(fmt.Sprintf("TOQ %.3f", toq), sp)
	}
}

func report(label string, sp *core.ScaledProgram) {
	d := sp.Config.TypeDist()
	fmt.Printf("%-14s speedup %.2fx  quality %.4f  types FP64:%d FP32:%d FP16:%d\n",
		label, sp.Speedup(), sp.Quality(),
		d[precision.Double], d[precision.Single], d[precision.Half])
}
