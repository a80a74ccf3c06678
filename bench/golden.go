package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"bwpart/internal/exper"
	"bwpart/internal/metrics"
	"bwpart/internal/sim"
)

//go:embed golden.json
var goldenJSON []byte

// golden pins what the simulator must reproduce bit-for-bit: one digest per
// (mix, scheme, bandwidth factor) cell and, per harness size, the
// simulated-time metrics. The --seed argument only permutes the order in
// which cells are requested, so the same digests hold for every seed.
type golden struct {
	Cells     map[string]string             `json:"cells"`
	Simulated map[string]map[string]float64 `json:"simulated"`

	// record makes every check store its value instead of comparing
	// (-update-golden).
	record bool
}

func loadGolden() (*golden, error) {
	g := &golden{}
	if err := json.Unmarshal(goldenJSON, g); err != nil {
		return nil, fmt.Errorf("parsing embedded golden.json: %w", err)
	}
	if g.Cells == nil {
		g.Cells = make(map[string]string)
	}
	if g.Simulated == nil {
		g.Simulated = make(map[string]map[string]float64)
	}
	return g, nil
}

// cellKey names a cell independently of the configuration fingerprint.
func cellKey(mixName, scheme string, factor int) string {
	return fmt.Sprintf("%s|%s|bw%d", mixName, scheme, factor)
}

// digest is the SHA-256 of a canonical encoding of the cell's measurement:
// sim.Result in declaration order plus the four objective values in the
// paper's order. encoding/json prints floats shortest-round-trip, so equal
// digests mean bit-equal results.
func digest(run *exper.MixRun) (string, error) {
	var values [4]float64
	for i, obj := range metrics.Objectives() {
		values[i] = run.Values[obj]
	}
	data, err := json.Marshal(struct {
		Result sim.Result
		Values [4]float64
	}{run.Result, values})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// checkCell compares a delivered cell with its golden digest.
func (g *golden) checkCell(factor int, run *exper.MixRun) error {
	key := cellKey(run.Mix.Name, run.Scheme, factor)
	got, err := digest(run)
	if err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	if g.record {
		g.Cells[key] = got
		return nil
	}
	want, ok := g.Cells[key]
	if !ok {
		return fmt.Errorf("%s: no golden digest", key)
	}
	if got != want {
		return fmt.Errorf("%s: digest %s, golden %s", key, got[:12], want[:12])
	}
	return nil
}

// checkValue compares a simulated-time metric with its golden value, exactly.
func (g *golden) checkValue(size, name string, v float64) error {
	if g.record {
		if g.Simulated[size] == nil {
			g.Simulated[size] = make(map[string]float64)
		}
		g.Simulated[size][name] = v
		return nil
	}
	want, ok := g.Simulated[size][name]
	if !ok {
		return fmt.Errorf("%s (%s): no golden value", name, size)
	}
	if v != want {
		return fmt.Errorf("%s (%s): %v, golden %v", name, size, v, want)
	}
	return nil
}

// write stores the golden file (map keys are emitted sorted).
func (g *golden) write(path string) error {
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// recordGolden re-records golden.json: every workload runs traced at both
// sizes with the golden checks storing instead of comparing.
func recordGolden(g *golden, root string, stderr io.Writer) int {
	g.record = true
	g.Cells = make(map[string]string)
	g.Simulated = make(map[string]map[string]float64)
	for _, sizeName := range []string{"tiny", "full"} {
		sz, err := sizeByName(sizeName)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		for _, wl := range workloadNames {
			h := newHarness(sz, wl, 1, nominalSeconds, true, g, root)
			if _, err := h.run(); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			fmt.Fprintf(stderr, "recorded %s/%s\n", sizeName, wl)
		}
	}
	path := filepath.Join(root, "bench", "golden.json")
	if err := g.write(path); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stderr, "wrote %s: %d cells\n", path, len(g.Cells))
	return 0
}
