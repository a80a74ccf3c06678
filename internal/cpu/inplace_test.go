package cpu

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"bwpart/internal/mem"
)

// twinL1 is a stub L1 whose hit, miss and refusal decisions depend only on
// the access stream, so two copies driven by the same core see the same
// decisions. A line is resident when its line number is not a multiple of
// four; a miss is refused while mshrs misses are outstanding. With inPlace
// set it answers opted-in hits within Access; otherwise it delivers every
// completion through Done at its cycle, as the L1 event queue used to.
type twinL1 struct {
	inPlace         bool
	hitLat, missLat int64
	mshrs           int
	due             []twinDone // in completion order
	misses          int        // outstanding
	answered        int        // hits answered in place
}

type twinDone struct {
	at   int64
	miss bool
	req  *mem.Request
}

func (p *twinL1) Access(now int64, req *mem.Request) bool {
	if req.Write {
		return true // posted
	}
	if (req.Addr/64)%4 != 0 {
		if p.inPlace && req.InPlace {
			req.Ready = now + p.hitLat
			p.answered++
			return true
		}
		p.push(twinDone{at: now + p.hitLat, req: req})
		return true
	}
	if p.misses >= p.mshrs {
		return false
	}
	p.misses++
	p.push(twinDone{at: now + p.missLat, miss: true, req: req})
	return true
}

// push inserts d keeping due sorted by cycle (ties in arrival order).
func (p *twinL1) push(d twinDone) {
	i := len(p.due)
	for i > 0 && p.due[i-1].at > d.at {
		i--
	}
	p.due = append(p.due, twinDone{})
	copy(p.due[i+1:], p.due[i:])
	p.due[i] = d
}

func (p *twinL1) tick(now int64) {
	for len(p.due) > 0 && p.due[0].at <= now {
		d := p.due[0]
		p.due = p.due[1:]
		if d.miss {
			p.misses--
		}
		d.req.Done(now)
	}
}

// rehitStream is randStream with cold loads that often land on resident
// lines, so in-place answers of cold loads (and their deferred MLP
// release) are common rather than rare.
type rehitStream struct {
	rng *rand.Rand
}

func (s *rehitStream) Next() Instr {
	switch r := s.rng.Float64(); {
	case r < 0.55:
		return Instr{}
	case r < 0.65:
		return Instr{Mem: true, Write: true, Addr: uint64(s.rng.Intn(1<<16)) * 64}
	default:
		return Instr{Mem: true, Cold: s.rng.Intn(3) == 0, Addr: uint64(s.rng.Intn(1<<16)) * 64}
	}
}

// driveTwin runs one core over port for cycles and returns its counters and
// the number of instructions retired on every cycle.
func driveTwin(t *testing.T, seed int64, port *twinL1, cycles int64) (Stats, []int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := Config{
		Width:               1 + rng.Intn(8),
		ROBSize:             8 + rng.Intn(120),
		BaseIPC:             0.15 + rng.Float64()*3,
		MaxOutstandingLoads: 1 + rng.Intn(3),
	}
	c, err := New(cfg, 0, port, &rehitStream{rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	retired := make([]int64, cycles)
	for cyc := int64(0); cyc < cycles; cyc++ {
		port.tick(cyc)
		before := c.Stats().Retired
		c.Tick(cyc)
		retired[cyc] = c.Stats().Retired - before
	}
	return c.Stats(), retired
}

// TestInPlaceMatchesTimedCompletion pins the in-place contract on the core:
// a load its L1 answers within Access must retire, and a cold one release
// its MLP slot, on exactly the cycle a completion delivered through Done at
// the same ready cycle would have made it. Two stub L1s make identical
// decisions; one answers hits in place, the other completes everything
// through Done. Refused misses exercise reject stalls, and the stream's cold
// loads often hit, so releases deferred to the ready cycle run every few
// cycles.
func TestInPlaceMatchesTimedCompletion(t *testing.T) {
	var mlpStalls, rejectStalls int64
	var answered int
	for seed := int64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed * 7919))
			hitLat, missLat := int64(rng.Intn(6)), int64(20+rng.Intn(200))
			mshrs := 1 + rng.Intn(4)
			timed := &twinL1{hitLat: hitLat, missLat: missLat, mshrs: mshrs}
			inPlace := &twinL1{inPlace: true, hitLat: hitLat, missLat: missLat, mshrs: mshrs}
			const cycles = 6_000
			wantStats, wantRetired := driveTwin(t, seed, timed, cycles)
			gotStats, gotRetired := driveTwin(t, seed, inPlace, cycles)
			if gotStats != wantStats {
				t.Errorf("stats diverge\ntimed    %+v\nin place %+v", wantStats, gotStats)
			}
			if !reflect.DeepEqual(gotRetired, wantRetired) {
				for cyc := range wantRetired {
					if gotRetired[cyc] != wantRetired[cyc] {
						t.Errorf("cycle %d: timed retired %d, in place %d", cyc, wantRetired[cyc], gotRetired[cyc])
						break
					}
				}
			}
			mlpStalls += wantStats.MLPStallCycles
			rejectStalls += wantStats.RejectStallCycles
			answered += inPlace.answered
		})
	}
	if mlpStalls == 0 || rejectStalls == 0 || answered == 0 {
		t.Errorf("the seeds never reached an MLP stall, a reject stall or an in-place answer: %d, %d, %d",
			mlpStalls, rejectStalls, answered)
	}
}
