package memctrl

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"testing"

	"bwpart/internal/dram"
)

// readIssueDigests loads the recorded trace digests.
func readIssueDigests(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("testdata/issue_digests.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// traceDigest hashes an issue trace followed by a completion trace.
func traceDigest(issues, done []issueRec) string {
	h := sha256.New()
	for _, r := range issues {
		fmt.Fprintf(h, "i %d %d %x %t\n", r.cycle, r.app, r.addr, r.write)
	}
	for _, r := range done {
		fmt.Fprintf(h, "c %d %d %x %t\n", r.cycle, r.app, r.addr, r.write)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestIssueTraceDigests pins every scheduler's picks: the SHA-256 of the
// diffDrive issue + completion trace must equal the digest recorded in
// testdata/issue_digests.json when the controller still carried an issue
// index next to the scan. bench/golden.json pins FCFS, StartTimeFair and
// Priority end to end; this reaches the policies it does not. A mismatch
// prints the new digest; re-record only for an intended behaviour change.
func TestIssueTraceDigests(t *testing.T) {
	want := readIssueDigests(t)
	const numApps = 5
	// The diffDrive table plus write-drain around two head-only policies, so
	// every class filter / inner pick combination has a pinned trace. The
	// table's write-drain over PARBS joined it after the digests were
	// recorded and has none; TestIndexedPickMatchesReference (queue counters,
	// every access retired once) and the kernel differential check it
	// instead.
	scheds := slices.DeleteFunc(diffSchedulers(numApps), func(sc schedCase) bool {
		return sc.name == "writedrain-parbs"
	})
	for _, sc := range scheds {
		if sc.name != "fcfs" && sc.name != "stf" {
			continue
		}
		inner := sc.mk
		sc.name = "writedrain-" + sc.name
		sc.mk = func(t *testing.T) Scheduler {
			s, err := NewWriteDrain(inner(t), 12, 4)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		scheds = append(scheds, sc)
	}
	for _, policy := range []dram.PagePolicy{dram.OpenPage, dram.ClosePage} {
		for _, sc := range scheds {
			key := sc.name + "/" + policy.String()
			t.Run(key, func(t *testing.T) {
				c, err := New(testDevice(t, policy), numApps, 0, sc.mk(t))
				if err != nil {
					t.Fatal(err)
				}
				issues, done, _ := diffDrive(t, c, numApps, 1, 20_000)
				if len(issues) == 0 {
					t.Fatal("controller issued nothing — workload broken")
				}
				if got := traceDigest(issues, done); got != want[key] {
					t.Errorf("trace digest %s, recorded %q", got, want[key])
				}
			})
		}
	}
}
