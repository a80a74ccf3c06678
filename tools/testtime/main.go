// Command testtime summarizes a `go test -json` run: it reads the event
// stream on stdin and prints every package's wall time, slowest first, with
// its result, then their sum and the run's own wall time (first to last
// event; packages run in parallel, so it is smaller than the sum). It exits
// non-zero when a package failed, naming its failed tests. `make testtime`
// runs the tier-1 suite through it:
//
//	go test -count=1 -json ./... | go run ./tools/testtime
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// event is the part of a test2json record testtime reads.
type event struct {
	Time    time.Time
	Action  string
	Package string
	Test    string
	Elapsed float64
}

// pkgResult is one package's final event.
type pkgResult struct {
	name    string
	action  string // pass, fail or skip
	elapsed float64
	failed  []string
}

// summarize reads the event stream and returns the packages in the order
// they finished, plus the span between the first and last event.
func summarize(r io.Reader) ([]*pkgResult, time.Duration, error) {
	byName := map[string]*pkgResult{}
	var done []*pkgResult
	var first, last time.Time
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue // build output and other non-JSON lines
		}
		if first.IsZero() {
			first = ev.Time
		}
		last = ev.Time
		p := byName[ev.Package]
		if p == nil {
			p = &pkgResult{name: ev.Package}
			byName[ev.Package] = p
		}
		switch {
		case ev.Test != "" && ev.Action == "fail":
			p.failed = append(p.failed, ev.Test)
		case ev.Test == "" && (ev.Action == "pass" || ev.Action == "fail" || ev.Action == "skip"):
			p.action, p.elapsed = ev.Action, ev.Elapsed
			done = append(done, p)
		}
	}
	return done, last.Sub(first), sc.Err()
}

func main() {
	pkgs, wall, err := summarize(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "testtime:", err)
		os.Exit(2)
	}
	sort.SliceStable(pkgs, func(i, j int) bool { return pkgs[i].elapsed > pkgs[j].elapsed })
	var sum float64
	failed := false
	for _, p := range pkgs {
		if p.action == "skip" {
			continue // no test files
		}
		sum += p.elapsed
		fmt.Printf("%8.2fs  %-4s  %s\n", p.elapsed, p.action, p.name)
		if p.action == "fail" {
			failed = true
			for _, t := range p.failed {
				fmt.Printf("           FAIL  %s\n", t)
			}
		}
	}
	fmt.Printf("%8.2fs  sum of packages\n%8.2fs  wall\n", sum, wall.Seconds())
	if failed {
		os.Exit(1)
	}
}
