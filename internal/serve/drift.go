package serve

import (
	"sync"
	"sync/atomic"

	"repro/internal/linalg"
	"repro/internal/reduction"
)

// DriftConfig enables streaming-PCA drift tracking of the mutation stream.
// The monitor maintains the covariance sufficient statistics of the served
// set (reduction.CovarianceAccumulator ingests every insert and delete)
// and periodically measures how much of the current variance the PCA basis
// frozen at the last snapshot build still captures
// (CovarianceAccumulator.CapturedEnergy). When that fraction decays below
// DecayThreshold times its at-freeze value, the engine schedules a full
// re-projection compaction and refits the basis — the serving-layer
// realization of the paper's coherence thesis: the projection quality a
// basis promised at build time silently degrades as the data drifts, so
// the trigger watches the basis, not the clock.
type DriftConfig struct {
	// Components is the tracked basis width m. 0 disables drift tracking
	// entirely (the zero value of DriftConfig is "off").
	Components int
	// DecayThreshold is the refit trigger in (0, 1]: decay fires when
	// captured energy falls below DecayThreshold × the at-freeze fraction.
	// 0 selects 0.9.
	DecayThreshold float64
	// CheckEvery evaluates the decay criterion every that-many mutations
	// (each evaluation is O(m·d²)). 0 selects 256.
	CheckEvery int
}

// withDefaults resolves zero fields.
func (c DriftConfig) withDefaults() DriftConfig {
	if c.DecayThreshold <= 0 {
		c.DecayThreshold = 0.9
	}
	if c.DecayThreshold > 1 {
		c.DecayThreshold = 1
	}
	if c.CheckEvery <= 0 {
		c.CheckEvery = 256
	}
	return c
}

// driftMonitor is the engine-side wrapper: one accumulator, one frozen
// basis, one decay flag the mutation path can poll without locking.
type driftMonitor struct {
	mu         sync.Mutex
	cfg        DriftConfig
	acc        *reduction.CovarianceAccumulator
	basis      *linalg.Dense // d×m frozen leading components; nil until a successful fit
	baseline   float64       // captured-energy fraction at freeze time
	current    float64       // last measured fraction
	sinceCheck int
	decay      atomic.Bool
}

// newDriftMonitor seeds the accumulator over the initial snapshot rows and
// freezes the first basis.
func newDriftMonitor(cfg DriftConfig, data *linalg.Dense) *driftMonitor {
	m := &driftMonitor{cfg: cfg.withDefaults()}
	m.acc = reduction.AccumulateMatrix(data)
	m.mu.Lock()
	m.refitLocked()
	m.mu.Unlock()
	return m
}

// observe ingests one mutation (sign +1 insert, -1 delete) and, every
// CheckEvery mutations, re-evaluates the frozen basis against the current
// covariance.
func (m *driftMonitor) observe(x []float64, sign int) {
	m.mu.Lock()
	if sign > 0 {
		m.acc.Add(x)
	} else if m.acc.N() > 0 {
		m.acc.Remove(x)
	}
	m.sinceCheck++
	if m.basis != nil && m.sinceCheck >= m.cfg.CheckEvery {
		m.sinceCheck = 0
		if m.acc.N() >= 2 {
			f := m.acc.CapturedEnergy(m.basis)
			m.current = f
			if f < m.cfg.DecayThreshold*m.baseline {
				m.decay.Store(true)
			}
		}
	}
	m.mu.Unlock()
}

// decayed reports whether the frozen basis has fallen below the decay
// threshold since the last refit. Lock-free: polled on every mutation.
func (m *driftMonitor) decayed() bool { return m.decay.Load() }

// refit refreezes the basis on the accumulator's current statistics and
// clears the decay flag; reports whether a fit happened (it needs at least
// 2 points and a convergent eigendecomposition — on failure the previous
// basis stays frozen).
func (m *driftMonitor) refit() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.refitLocked()
}

func (m *driftMonitor) refitLocked() bool {
	if m.acc.N() < 2 {
		return false
	}
	p, err := m.acc.FitPCA()
	if err != nil {
		return false
	}
	k := m.cfg.Components
	if k > m.acc.Dims() {
		k = m.acc.Dims()
	}
	cols := make([]int, k)
	for i := range cols {
		cols[i] = i
	}
	m.basis = p.Components.SliceCols(cols)
	m.baseline = m.acc.CapturedEnergy(m.basis)
	m.current = m.baseline
	m.sinceCheck = 0
	m.decay.Store(false)
	return true
}

// energies returns (at-freeze fraction, last measured fraction) for Stats.
func (m *driftMonitor) energies() (baseline, current float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.baseline, m.current
}
