package exper

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"bwpart/internal/faultinject"
	"bwpart/internal/obs"
	"bwpart/internal/workload"
)

// CheckpointStore persists finished cells as JSON files
// so an interrupted RunGrid resumes where it stopped instead of starting
// over. Files are keyed like the in-memory result cache — by the mix's
// benchmark list, the policy, its share vector or epochs, and a fingerprint of every configuration knob
// that affects the measurement — so results recorded under a different
// configuration are never mistaken for the current sweep's: a stale file is
// simply a cache miss.
//
// The store degrades instead of failing: any disk I/O error (a full or
// read-only disk, a sick mount) permanently demotes it to in-memory-only
// mode for the rest of its life — Load always misses, Save is a no-op — so
// a broken checkpoint tier costs persistence, never correctness and never a
// failed cell. The demotion is logged exactly once and surfaced through the
// attached collector (checkpoint_errors counter, checkpoint_degraded gauge).
// A missing file on Load and a corrupt/stale JSON payload are ordinary
// misses, not degradation.
type CheckpointStore struct {
	dir string

	mu       sync.Mutex
	degraded bool
	col      *obs.Collector
	faults   *faultinject.Injector
	logf     func(format string, args ...any)
}

// NewCheckpointStore opens (creating if needed) a checkpoint directory.
func NewCheckpointStore(dir string) (*CheckpointStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("exper: empty checkpoint directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("exper: checkpoint dir: %w", err)
	}
	return &CheckpointStore{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *CheckpointStore) Dir() string { return s.dir }

// Degraded reports whether a disk failure has demoted the store to
// in-memory-only mode.
func (s *CheckpointStore) Degraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded
}

// SetLogf overrides where the one-time degradation message goes (default
// log.Printf). Tests use it to capture the message; sweepd could route it
// into a structured logger.
func (s *CheckpointStore) SetLogf(logf func(format string, args ...any)) {
	s.mu.Lock()
	s.logf = logf
	s.mu.Unlock()
}

// attach installs the runner's collector and fault injector, first non-nil
// wins — a store shared across runners keeps the first observability wiring
// it saw.
func (s *CheckpointStore) attach(col *obs.Collector, faults *faultinject.Injector) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.col == nil {
		s.col = col
	}
	if s.faults == nil {
		s.faults = faults
	}
	s.mu.Unlock()
}

// injector returns the attached fault injector (nil is a valid no-op one).
func (s *CheckpointStore) injector() *faultinject.Injector {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.faults
}

// degrade records one checkpoint I/O failure and demotes the store. The
// counter counts every distinct error observed; the demotion itself — log
// line and gauge — happens exactly once per store.
func (s *CheckpointStore) degrade(op string, err error) {
	s.mu.Lock()
	first := !s.degraded
	s.degraded = true
	col, logf := s.col, s.logf
	s.mu.Unlock()
	col.Add(obs.CheckpointErrors, 1)
	if !first {
		return
	}
	col.Set(obs.CheckpointDegraded, 1)
	if logf == nil {
		logf = log.Printf
	}
	logf("exper: checkpoint %s failed; store degraded to in-memory only (cells still compute, persistence is off): %v", op, err)
}

// cellPath names the file for one cell on the system fingerprinted fp by the
// SHA-256 of the same content-addressed cellKey the memory tier uses, so the
// tiers agree on what a cell is: mixes that alias in memory (the motivation
// mix is hetero-5) share one file, same-named mixes over different benchmarks
// never do, and any config difference or version bump makes old files plain
// misses. The version and a fingerprint prefix lead the name only so an
// operator can tell (and prune) one configuration's files.
func (s *CheckpointStore) cellPath(fp string, c GridCell) string {
	key := sha256.Sum256([]byte(cellKey(fp, c)))
	return filepath.Join(s.dir, fmt.Sprintf("v%d-%s-%x.json", FingerprintVersion, fp[:16], key))
}

// Has reports whether a file for r's cell c exists, without reading it: a
// restarted server counts what an interrupted job already paid for this way,
// which must neither consume a fault-injection schedule nor degrade the
// store. Load decides whether the file is usable.
func (s *CheckpointStore) Has(r *Runner, c GridCell) bool {
	on, err := r.system(c.System)
	if s == nil || err != nil {
		return false
	}
	_, err = os.Stat(s.cellPath(on.fp, c))
	return err == nil
}

// Load returns the stored cell for (mix, scheme) under r's configuration,
// or (nil, false) when absent, unreadable, or recorded for a different
// benchmark list, policy, share vector or epochs — any such miss just means the cell is
// re-simulated. Display labels are not compared: an aliased mix may have
// written the file. A read error other than "file does not exist"
// additionally degrades the store. A nil store holds nothing.
func (s *CheckpointStore) Load(r *Runner, mix workload.Mix, scheme string) (*MixRun, bool) {
	run, _ := s.load(r.own.fp, GridCell{Mix: mix, Scheme: scheme})
	return run, run != nil
}

// load is Load on the system fingerprinted fp, plus the file's bytes as the
// cell's encoding (newline added), so a promoted cell is never re-encoded.
func (s *CheckpointStore) load(fp string, c GridCell) (*MixRun, []byte) {
	if s == nil || s.Degraded() {
		return nil, nil
	}
	if err := s.injector().Err(faultinject.CheckpointRead); err != nil {
		s.degrade("read", err)
		return nil, nil
	}
	data, err := os.ReadFile(s.cellPath(fp, c))
	if err != nil {
		if !os.IsNotExist(err) {
			s.degrade("read", err)
		}
		return nil, nil
	}
	var run MixRun
	if err := json.Unmarshal(data, &run); err != nil {
		return nil, nil
	}
	if !slices.Equal(run.Mix.Benchmarks, c.Mix.Benchmarks) || run.Scheme != c.Scheme || !slices.Equal(run.Shares, c.Shares) ||
		run.Epoch != c.Epoch || run.Epochs != c.Epochs {
		return nil, nil
	}
	return &run, append(data, '\n')
}

// Save atomically persists one finished cell of r's own system (temp file +
// rename), so a crash mid-write never leaves a truncated checkpoint behind.
// An I/O error degrades the store (logged and counted there) and is returned
// only for visibility — callers must never fail a finished cell on it, and
// the degraded store turns all further Saves into no-ops, as does a nil one.
func (s *CheckpointStore) Save(r *Runner, run *MixRun) error { return s.save(r.own.fp, run) }

// save is Save of a cell on the system fingerprinted fp.
func (s *CheckpointStore) save(fp string, run *MixRun) error {
	if s == nil || s.Degraded() {
		return nil
	}
	data, err := json.Marshal(run)
	if err != nil {
		return err
	}
	if err := s.injector().Err(faultinject.CheckpointWrite); err != nil {
		s.degrade("write", err)
		return err
	}
	tmp, err := os.CreateTemp(s.dir, ".cell-*.tmp")
	if err != nil {
		s.degrade("write", err)
		return err
	}
	op := "write"
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		op, err = "rename", s.injector().Err(faultinject.CheckpointRename)
	}
	if err == nil {
		err = os.Rename(tmp.Name(), s.cellPath(fp, run.cell()))
	}
	if err != nil {
		os.Remove(tmp.Name())
		s.degrade(op, err)
	}
	return err
}
