// Package vtime is the virtual testbed: it runs a model on the same
// round engine as the live kernels (internal/core), under the engine's
// virtual executor. That executor runs on one real thread and gives every
// virtual worker its own clock, advanced by a calibrated per-event cost
// model instead of real time. Round makespans, the P/S/M decomposition,
// and speedups are therefore computed exactly and deterministically for
// any requested core count — the substitution for the paper's
// 16–144-core testbeds (DESIGN.md §1). Because the partition, the worker
// groups, the window and the scheduler are the live kernels' own, the
// modeled figures describe the program that actually runs.
//
// The simulation itself is executed for real (every event callback runs),
// so the virtual run produces the same simulation results as the live
// kernels; only the time accounting is modeled.
package vtime

import (
	"errors"
	"fmt"

	"unison/internal/core"
	"unison/internal/obs"
	"unison/internal/pdes"
	"unison/internal/sim"
)

// Algorithm selects which kernel the virtual testbed models.
type Algorithm uint8

const (
	// Sequential models the sequential DES kernel.
	Sequential Algorithm = iota
	// Barrier models the barrier-synchronization PDES baseline: one rank
	// per virtual core, static partition, global LBTS rounds.
	Barrier
	// NullMessage models the Chandy–Misra–Bryant baseline: one rank per
	// virtual core, pairwise channel synchronization.
	NullMessage
	// Unison models the Unison kernel: fine-grained partition and
	// load-adaptive scheduling over `Cores` virtual worker threads.
	Unison
	// Hybrid models the §5.2 multi-host kernel: HostOf assigns nodes to
	// simulation hosts, each with CoresPerHost cores, synchronized by a
	// per-round inter-host all-reduce.
	Hybrid
)

func (a Algorithm) String() string {
	switch a {
	case Sequential:
		return "v-sequential"
	case Barrier:
		return "v-barrier"
	case NullMessage:
		return "v-nullmsg"
	case Unison:
		return "v-unison"
	default:
		return "v-hybrid"
	}
}

// Config parameterizes a virtual-testbed run.
type Config struct {
	Algo Algorithm
	// Cores is the virtual worker count for Unison. The rank-per-core
	// baselines derive their core count from the partition instead.
	Cores int
	// LPOf is the static manual partition (mandatory for Barrier and
	// NullMessage; optional manual override for Unison).
	LPOf []int32
	// Metric and Period configure Unison's load-adaptive scheduler.
	Metric core.Metric
	Period int
	// HostOf and CoresPerHost configure the Hybrid algorithm.
	HostOf       []int32
	CoresPerHost int
	// CoreSpeeds gives each Unison virtual core a relative speed (1.0 =
	// nominal). Defaults to identical cores — the assumption the paper's
	// scheduler makes (§7).
	CoreSpeeds []float64
	// SpeedAware makes the scheduler account for core speeds when
	// choosing where the next LP runs (the §7 "more general scheduling
	// strategy"); when false, heterogeneous cores are scheduled naively.
	SpeedAware bool
	// Cost converts events into virtual nanoseconds.
	Cost CostModel
	// RecordRounds captures the per-round trace.
	RecordRounds bool
	// MaxRounds aborts runaway simulations when positive.
	MaxRounds uint64
	// Observe, when non-nil, receives one obs.RoundRecord per virtual
	// worker per round. Because the testbed is single-threaded and its
	// clocks are modeled, every record field — including the NS timings —
	// is deterministic.
	Observe obs.Probe
}

// Run executes m under the virtual testbed.
func Run(m *sim.Model, cfg Config) (*sim.RunStats, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("vtime: %w", err)
	}
	if m.Ckpt != nil {
		// The testbed models wall clocks, not real ones, and replays whole
		// runs cheaply — snapshotting it would pin modeled clock state the
		// format deliberately excludes.
		return nil, errors.New("vtime: the virtual testbed does not support checkpoint/restore")
	}
	cfg.Cost.fillDefaults()
	if cfg.Algo == NullMessage {
		return runNullMessage(m, cfg)
	}
	pol, vc, err := plan(m, cfg)
	if err != nil {
		return nil, err
	}
	st, err := pol.RunVirtual(m, vc)
	if st != nil && cfg.Algo == Sequential {
		// Like the sequential DES kernel, v-sequential reports no rounds:
		// its windows only end at global events.
		st.Rounds = 0
	}
	return st, err
}

// plan maps a round algorithm onto the round engine: the live kernel's
// policy, and what the virtual executor charges for it.
func plan(m *sim.Model, cfg Config) (core.Policy, core.VirtualCost, error) {
	c := cfg.Cost
	vc := core.VirtualCost{
		EventNS: c.EventNS, MissNS: c.MissNS, CacheWays: c.CacheWays,
		MsgNS: c.MsgNS, SortPerLPNS: c.SortPerLPNS,
		Speeds: cfg.CoreSpeeds, SpeedAware: cfg.SpeedAware,
	}
	var pol core.Policy
	switch cfg.Algo {
	case Sequential:
		pol = core.BarrierPolicy(core.SingleLP(m.Nodes, m.Links()))
		pol.Name = Sequential.String()
	case Barrier:
		part, err := manual(m, cfg)
		if err != nil {
			return pol, vc, err
		}
		pol = core.BarrierPolicy(part)
		pol.Name = Barrier.String()
		// Two collective barriers per round, each computing the LBTS.
		vc.RoundNS = 2 * c.BarrierNS
	case Unison:
		if cfg.Cores <= 0 {
			return pol, vc, errors.New("vtime: Unison requires Cores > 0")
		}
		pol = core.UnisonPolicy(m, cfg.LPOf, cfg.Cores)
		pol.Name = fmt.Sprintf("v-unison(t=%d)", cfg.Cores)
		pol.Metric, pol.Period = cfg.Metric, cfg.Period
		// Four in-process spin barriers per round (§5.1).
		vc.RoundNS = 4 * c.SpinBarrierNS
	case Hybrid:
		if cfg.HostOf == nil {
			return pol, vc, errors.New("vtime: Hybrid requires HostOf")
		}
		if cfg.CoresPerHost <= 0 {
			return pol, vc, errors.New("vtime: Hybrid requires CoresPerHost > 0")
		}
		var err error
		if pol, err = core.HybridPolicy(m, cfg.HostOf, cfg.CoresPerHost); err != nil {
			return pol, vc, err
		}
		pol.Name = fmt.Sprintf("v-hybrid(%dx%d)", len(pol.Workers), cfg.CoresPerHost)
		pol.Metric, pol.Period = cfg.Metric, cfg.Period
		// The intra-host spin barriers plus the inter-host all-reduce.
		vc.RoundNS = 4*c.SpinBarrierNS + 2*c.BarrierNS
		if cfg.Observe != nil {
			cfg.Observe = allReduceProbe{cfg.Observe, 2 * c.BarrierNS}
		}
	default:
		return pol, vc, errors.New("vtime: unknown algorithm")
	}
	pol.RecordRounds, pol.MaxRounds, pol.Observe = cfg.RecordRounds, cfg.MaxRounds, cfg.Observe
	if speeds := cfg.CoreSpeeds; speeds != nil {
		workers := 0
		for _, n := range pol.Workers {
			workers += n
		}
		if len(speeds) != workers {
			return pol, vc, errors.New("vtime: CoreSpeeds length must equal the worker count")
		}
		for _, sp := range speeds {
			if sp <= 0 {
				return pol, vc, errors.New("vtime: CoreSpeeds must be positive")
			}
		}
	}
	return pol, vc, nil
}

// runNullMessage maps the null-message algorithm onto pdes's virtual
// executor, as plan does for the round algorithms.
func runNullMessage(m *sim.Model, cfg Config) (*sim.RunStats, error) {
	part, err := manual(m, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.CoreSpeeds != nil {
		return nil, errors.New("vtime: NullMessage does not model CoreSpeeds")
	}
	c := cfg.Cost
	vc := pdes.VirtualCost{EventNS: c.EventNS, MissNS: c.MissNS, CacheWays: c.CacheWays, MsgNS: c.MsgNS, NullNS: c.NullNS}
	k := pdes.NullMessageKernel{Part: part, Observe: cfg.Observe}
	return k.RunVirtual(m, NullMessage.String(), vc)
}

// manual is the static partition of the rank-per-core algorithms.
func manual(m *sim.Model, cfg Config) (*core.Partition, error) {
	if len(cfg.LPOf) != m.Nodes {
		return nil, fmt.Errorf("vtime: %v requires a manual partition (LPOf) covering every node", cfg.Algo)
	}
	return core.Manual(cfg.LPOf, m.Links()), nil
}

// allReduceProbe stamps the modeled inter-host all-reduce on every
// v-hybrid record. v-hybrid records report no FEL depth, so the field is
// cleared.
type allReduceProbe struct {
	obs.Probe
	ns int64
}

func (p allReduceProbe) OnRound(rec *obs.RoundRecord) {
	rec.AllReduceNS, rec.FELDepth = p.ns, 0
	p.Probe.OnRound(rec)
}

// Speedup returns base's virtual time divided by st's — the figure-of-
// merit of every speedup plot.
func Speedup(base, st *sim.RunStats) float64 {
	if st.VirtualT == 0 {
		return 0
	}
	return float64(base.VirtualT) / float64(st.VirtualT)
}
