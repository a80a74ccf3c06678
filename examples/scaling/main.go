// Scaling example: how the benefit of model-derived partitioning grows as
// bandwidth and core count scale together (paper Sec. VI-C / Figure 4).
//
// Consolidation planning scenario: the same heterogeneous job mix is
// replicated as the machine grows from 4 cores / 3.2 GB/s to 8 cores /
// 6.4 GB/s, and we compare the optimal scheme for each objective against
// Equal partitioning at both scales.
//
// Run with: go run ./examples/scaling
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

	mix, err := bwpart.MixByName("hetero-7") // lbm-milc-gobmk-zeusmp: most heterogeneous
	if err != nil {
		log.Fatal(err)
	}
	fig, err := runner.Figure4Scaled([]bwpart.Mix{mix}, []int{1, 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(fig)

	// The mechanism behind the trend: bandwidth-bound apps grow their
	// standalone APC much faster with added bandwidth than latency-bound
	// ones, so the workload becomes more heterogeneous at scale.
	apcs, err := runner.AloneAPCScaling([]string{"lbm", "leslie3d"}, []int{1, 2})
	if err != nil {
		log.Fatal(err)
	}
	for _, name := range []string{"lbm", "leslie3d"} {
		s := apcs[name]
		fmt.Printf("%-10s APKC_alone %.2f -> %.2f (%+.1f%%)\n", name, s[0], s[1], 100*(s[1]/s[0]-1))
	}
	fmt.Println("\npaper reports lbm +83.7% and leslie3d +24.5% from 3.2 to 6.4 GB/s;")
	fmt.Println("the widening gap is why optimal partitioning pays off more at scale.")

	// Columns are the scale points; the gain grows when the last beats the
	// first.
	first, last := fig.Header[1], fig.Header[len(fig.Header)-1]
	for _, obj := range bwpart.Objectives() {
		lo, _ := fig.Value(obj.String(), first)
		hi, _ := fig.Value(obj.String(), last)
		if hi > lo {
			fmt.Printf("%-26s gain over Equal grows with scale\n", obj)
		} else {
			fmt.Printf("%-26s gain over Equal does not grow on this mix\n", obj)
		}
	}
}
