// Adaptive example: a program that alternates between a compute phase and
// a memory-streaming phase, with bandwidth shares re-derived every epoch
// from the online APC_alone estimator — the paper's deployable loop
// (Sec. IV-C: three counters per app, Eq. 12/13, periodic repartitioning).
//
// Run with: go run ./examples/adaptive
package main

import (
	"fmt"
	"log"

	"bwpart"
)

func main() {
	log.SetFlags(0)
	cfg := bwpart.QuickExperiments()
	runner, err := bwpart.NewRunner(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("app 0 alternates povray-like (compute) and lbm-like (streaming) phases;")
	fmt.Println("apps 1-3 are static (milc, gromacs, gobmk). Proportional shares are")
	fmt.Println("re-derived from online APC_alone estimates at every epoch.")
	fmt.Println()

	res, err := runner.PhaseStudy(100_000 /* instrs per phase */, 200_000 /* cycles per epoch */, 6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res)
	fmt.Println()
	fmt.Println("reading the table: the online estimate column swings as the phased app")
	fmt.Println("moves between phases; a static (profile-once) partition keeps serving the")
	fmt.Println("stale share while the adaptive one follows the estimate.")

	// The same machinery is available piecemeal: build a phased stream and
	// inspect it directly.
	gen, err := bwpart.NewPhasedGenerator([]bwpart.WorkloadPhase{
		{Profile: mustBench("povray"), Instructions: 50_000},
		{Profile: mustBench("lbm"), Instructions: 50_000},
	}, 0, 1)
	if err != nil {
		log.Fatal(err)
	}
	memRefs := 0
	for i := 0; i < 50_000; i++ {
		if gen.Next().Mem {
			memRefs++
		}
	}
	fmt.Printf("\nphase 0 (povray-like): %.0f refs/KI; after the boundary the stream is in phase %d\n",
		float64(memRefs)/50, gen.CurrentPhase())
}

func mustBench(name string) bwpart.Profile {
	p, err := bwpart.BenchmarkByName(name)
	if err != nil {
		log.Fatal(err)
	}
	return p
}
