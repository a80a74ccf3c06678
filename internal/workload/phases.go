package workload

import (
	"errors"
	"fmt"

	"bwpart/internal/cpu"
)

// Phase is one behavioral phase of a phased workload: a profile and how
// many instructions it lasts.
type Phase struct {
	Profile      Profile
	Instructions int64
}

// PhasedGenerator cycles through behavioral phases, emitting each phase's
// instruction stream for its duration and then switching to the next
// (wrapping around). It models the program phase changes that the paper's
// periodic APC_alone re-profiling exists to track (Sec. IV-C: "when an
// application's behavior changes, its APC_alone will be updated").
type PhasedGenerator struct {
	phases    []Phase
	gens      []*Generator
	current   int
	remaining int64
}

// NewPhasedGenerator builds a phased generator in application slot app. All
// phases share the app's address space (same slot/seed), so the caches stay
// warm across phase switches exactly as they would for a real program
// changing behavior.
func NewPhasedGenerator(phases []Phase, app int, seed int64) (*PhasedGenerator, error) {
	if len(phases) == 0 {
		return nil, errors.New("workload: need at least one phase")
	}
	g := &PhasedGenerator{phases: append([]Phase(nil), phases...)}
	for i, ph := range phases {
		if ph.Instructions <= 0 {
			return nil, fmt.Errorf("workload: phase %d has non-positive length", i)
		}
		gen, err := NewGenerator(ph.Profile, app, seed+int64(i))
		if err != nil {
			return nil, fmt.Errorf("workload: phase %d: %w", i, err)
		}
		g.gens = append(g.gens, gen)
	}
	g.remaining = phases[0].Instructions
	return g, nil
}

// Next implements cpu.Stream.
func (g *PhasedGenerator) Next() cpu.Instr {
	in := g.gens[g.current].Next()
	g.remaining--
	if g.remaining <= 0 {
		g.current = (g.current + 1) % len(g.phases)
		g.remaining = g.phases[g.current].Instructions
	}
	return in
}

// SkipGap implements cpu.GapStream: the active phase's non-memory run,
// cut at the phase's end as Next would switch there.
func (g *PhasedGenerator) SkipGap(n int) int {
	n = g.gens[g.current].SkipGap(int(min(int64(n), g.remaining)))
	g.remaining -= int64(n)
	if g.remaining <= 0 {
		g.current = (g.current + 1) % len(g.phases)
		g.remaining = g.phases[g.current].Instructions
	}
	return n
}

// CoreParams implements cpu.DynamicStream: the core's ILP ceiling and MLP
// bound follow the active phase.
func (g *PhasedGenerator) CoreParams() (float64, int) {
	p := g.phases[g.current].Profile
	return p.BaseIPC, p.MLP
}

// PhasedState is the complete mutable state of a PhasedGenerator.
type PhasedState struct {
	Current   int
	Remaining int64
	Gens      []GeneratorState
}

// StreamState captures the phased generator's mutable state, including
// every per-phase generator stream.
func (g *PhasedGenerator) StreamState() any {
	st := PhasedState{
		Current:   g.current,
		Remaining: g.remaining,
		Gens:      make([]GeneratorState, len(g.gens)),
	}
	for i, gen := range g.gens {
		st.Gens[i] = gen.StreamState().(GeneratorState)
	}
	return st
}

// RestoreStreamState resumes the stream from a StreamState capture.
func (g *PhasedGenerator) RestoreStreamState(st any) error {
	s, ok := st.(PhasedState)
	if !ok {
		return fmt.Errorf("workload: cannot restore PhasedGenerator from %T", st)
	}
	if len(s.Gens) != len(g.gens) {
		return fmt.Errorf("workload: phase count mismatch: state has %d, generator has %d", len(s.Gens), len(g.gens))
	}
	g.current = s.Current
	g.remaining = s.Remaining
	for i := range g.gens {
		if err := g.gens[i].RestoreStreamState(s.Gens[i]); err != nil {
			return err
		}
	}
	return nil
}

// ForkStream returns an independent continuation of the phased stream.
func (g *PhasedGenerator) ForkStream() cpu.Stream {
	cp := *g
	cp.gens = make([]*Generator, len(g.gens))
	for i, gen := range g.gens {
		gc := *gen
		cp.gens[i] = &gc
	}
	return &cp
}

// Warmup fast-forwards n instructions functionally (phase switching
// included), installing lines into the given cache.
func (g *PhasedGenerator) Warmup(t Toucher, n int64) {
	for i := int64(0); i < n; i++ {
		in := g.Next()
		if in.Mem {
			t.Touch(in.Addr, in.Write)
		}
	}
}

// TwoPhase is a convenience constructor for an A/B phased workload built
// from two named benchmarks with equal phase lengths.
func TwoPhase(benchA, benchB string, instrPerPhase int64, app int, seed int64) (*PhasedGenerator, error) {
	pa, err := ByName(benchA)
	if err != nil {
		return nil, err
	}
	pb, err := ByName(benchB)
	if err != nil {
		return nil, err
	}
	return NewPhasedGenerator([]Phase{
		{Profile: pa, Instructions: instrPerPhase},
		{Profile: pb, Instructions: instrPerPhase},
	}, app, seed)
}
