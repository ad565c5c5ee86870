// Package pdes implements the two classic conservative PDES algorithms
// the paper profiles and compares against (§2.3): the barrier
// synchronization algorithm (ns-3's default PDES) and the Chandy–Misra–
// Bryant null message algorithm. Both require a static manual partition
// of the topology into ranks — exactly the complex configuration step
// Unison eliminates — and this package also ships the per-topology manual
// partition recipes that step entails (partition.go).
package pdes

import (
	"errors"
	"fmt"

	"unison/internal/core"
	"unison/internal/obs"
	"unison/internal/sim"
)

// BarrierKernel is the barrier synchronization algorithm: every rank is a
// logical process bound to its own worker; rounds are separated by global
// barriers; the window is LBTS = min{N_i} + lookahead (Equation 1). It
// runs on the round engine with core.BarrierPolicy: one worker group per
// rank, so a rank never migrates.
//
// The rank assignment is static: there is no load balancing, which is the
// root cause of the synchronization time the paper measures in §3.2.
type BarrierKernel struct {
	// Part is the static rank assignment and its lookahead
	// (core.Manual, or a recipe from partition.go).
	Part *core.Partition
	// RecordRounds captures per-round P samples (Figures 5b/13a).
	RecordRounds bool
	// CacheWays enables the cache-locality model when positive.
	CacheWays int
	// MaxRounds aborts runaway simulations when positive.
	MaxRounds uint64
	// Observe, when non-nil, receives one obs.RoundRecord per rank per
	// round plus run begin/end notifications. Rank index == worker index.
	Observe obs.Probe
}

// Name implements sim.Kernel.
func (k *BarrierKernel) Name() string { return "barrier" }

// Run implements sim.Kernel.
func (k *BarrierKernel) Run(m *sim.Model) (*sim.RunStats, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("pdes: %w", err)
	}
	if k.Part == nil || len(k.Part.LPOf) != m.Nodes {
		return nil, errors.New("pdes: BarrierKernel requires a manual partition covering every node")
	}
	pol := core.BarrierPolicy(k.Part)
	pol.Name = k.Name()
	pol.CacheWays, pol.RecordRounds = k.CacheWays, k.RecordRounds
	pol.MaxRounds, pol.Observe = k.MaxRounds, k.Observe
	return pol.Run(m)
}
