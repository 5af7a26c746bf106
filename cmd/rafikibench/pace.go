package main

import (
	"sync"
	"time"
)

// The box this benchmark runs on is shared, and its speed moves in
// regimes that outlast a run: the same binary measured 17 s and 27 s
// for one Tuner.Prepare an hour apart, and two ten-run sets of the same
// commit differed by 26 % in their medians. No statistic inside a run
// removes that. So the end-to-end host times are reported in nominal
// seconds: wall time divided by the box's momentary slowdown, which is
// the median time of a fixed reference kernel run at the boundaries of
// the timed work, over the kernel's nominal time. With it, two ten-run
// sets of one commit agreed within 6 % on every host metric where their
// wall-clock medians were 15 % apart. Allocation counts, per-layer
// timings and every sim number are untouched.
const (
	paceWords     = 1 << 21   // 16 MB of uint64: well past the private caches
	paceIters     = 2_000_000 // dependent random read-modify-writes per tick
	paceNominalNs = 16e6      // a tick on the sizing box in its fast regime
	paceBurst     = 5         // ticks taken before and after a call that cannot be cut

	// Phases ticks are tagged with.
	phaseSetup  = "setup"
	phaseRep    = "rep"
	phaseSearch = "search" // tune_dynamic's Recommend calls
)

// pacer times the reference kernel. Ticks are tagged with the phase
// they bracket (set-up, the timed repetition, ...): what else the box's
// caches hold changes the kernel's time, so a phase is only compared
// with ticks taken in its own surroundings. Ticks from pool goroutines
// queue on the lock. A nil pacer does nothing.
type pacer struct {
	mu    sync.Mutex
	buf   []uint64
	ticks map[string][]float64 // ns, by phase
	sink  uint64
}

func newPacer() *pacer {
	return &pacer{buf: make([]uint64, paceWords), ticks: make(map[string][]float64)}
}

// tick runs the kernel once, records its wall time under phase and
// returns it, so that a caller inside a timed region can take it back
// out.
func (p *pacer) tick(phase string) time.Duration {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	start := time.Now()
	x := p.sink | 1
	for i := 0; i < paceIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		p.buf[x>>43] += x
	}
	p.sink = x
	d := time.Since(start)
	p.ticks[phase] = append(p.ticks[phase], float64(d.Nanoseconds()))
	return d
}

// burst takes paceBurst ticks.
func (p *pacer) burst(phase string) {
	for i := 0; i < paceBurst; i++ {
		p.tick(phase)
	}
}

// finish stores every phase's slowdown in r and drops the kernel's
// buffer, so that live_heap_mb does not count it.
func (p *pacer) finish(r *runResult) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for phase, ticks := range p.ticks {
		r.Slowdown[phase] = median(ticks) / paceNominalNs
	}
	p.buf = nil
}
