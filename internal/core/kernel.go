package core

import (
	"fmt"
	"runtime"

	"unison/internal/obs"
	"unison/internal/sim"
)

// Metric selects the load-adaptive scheduling estimate P̂ᵢ,ᵣ (§4.3).
type Metric uint8

const (
	// MetricPrevTime estimates an LP's next-round cost by its measured
	// processing time in the previous round — Unison's default
	// ("ByExecutionTime" in the artifact).
	MetricPrevTime Metric = iota
	// MetricPendingEvents estimates by the number of events the LP
	// received for the next round.
	MetricPendingEvents
	// MetricNone disables scheduling (LPs keep their original order).
	MetricNone
)

func (m Metric) String() string {
	switch m {
	case MetricPrevTime:
		return "prev-time"
	case MetricPendingEvents:
		return "pending-events"
	default:
		return "none"
	}
}

// Config tunes the Unison kernel.
type Config struct {
	// Threads is the worker count (defaults to GOMAXPROCS).
	Threads int
	// Metric selects the scheduling estimate.
	Metric Metric
	// Period is the scheduling period in rounds; 0 selects the paper's
	// ⌈log₂ n⌉ rule.
	Period int
	// ManualLP bypasses Algorithm 1 with an explicit node→LP assignment
	// (used by the partition-granularity micro-benchmarks, Fig 12).
	ManualLP []int32
	// CacheWays enables the cache-locality model when positive.
	CacheWays int
	// RecordRounds captures a per-round trace (Figures 5b/9b/13).
	RecordRounds bool
	// MaxRounds aborts runaway simulations when positive.
	MaxRounds uint64
	// Observe, when non-nil, receives per-round per-worker telemetry
	// (internal/obs). A probe only observes: probed runs are bit-identical
	// to unprobed ones, and a nil probe costs one branch per round.
	Observe obs.Probe
}

// Kernel is the Unison simulation kernel: the round engine with every LP
// in one group of Threads workers.
type Kernel struct {
	cfg Config
}

// New returns a Unison kernel with cfg.
func New(cfg Config) *Kernel {
	if cfg.Threads <= 0 {
		cfg.Threads = runtime.GOMAXPROCS(0)
	}
	return &Kernel{cfg: cfg}
}

// Name implements sim.Kernel.
func (k *Kernel) Name() string { return fmt.Sprintf("unison(t=%d)", k.cfg.Threads) }

// Run implements sim.Kernel.
func (k *Kernel) Run(m *sim.Model) (*sim.RunStats, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	pol := UnisonPolicy(m, k.cfg.ManualLP, k.cfg.Threads)
	pol.Name = k.Name()
	pol.Metric, pol.Period = k.cfg.Metric, k.cfg.Period
	pol.CacheWays, pol.RecordRounds = k.cfg.CacheWays, k.cfg.RecordRounds
	pol.MaxRounds, pol.Observe = k.cfg.MaxRounds, k.cfg.Observe
	return pol.Run(m)
}

// UnisonPolicy partitions m by Algorithm 1 (or by manualLP when non-nil)
// and puts every LP in one group of threads workers.
func UnisonPolicy(m *sim.Model, manualLP []int32, threads int) Policy {
	var part *Partition
	if manualLP != nil {
		part = Manual(manualLP, m.Links())
	} else {
		part = FineGrained(m.Nodes, m.Links())
	}
	return Policy{Part: part, GroupOf: make([]int32, part.Count), Workers: []int{threads}}
}
