package core

import (
	"errors"
	"fmt"

	"unison/internal/obs"
	"unison/internal/sim"
)

// HybridConfig parameterizes the scalable hybrid kernel of §5.2: the
// topology is first divided statically across simulation hosts (the
// outer, barrier-style partition), and each host runs Unison's
// fine-grained partition and load-adaptive scheduling over its own nodes.
// Hosts synchronize each round through an all-reduce of their minimum
// next-event times. In this reproduction the hosts live in one process
// and the all-reduce is over shared memory; the synchronization algorithm
// is unchanged (DESIGN.md §1).
type HybridConfig struct {
	// HostOf assigns every node to a simulation host (0..Hosts-1).
	HostOf []int32
	// ThreadsPerHost is each host's Unison worker count.
	ThreadsPerHost int
	// Metric and Period configure each host's scheduler.
	Metric Metric
	Period int
	// MaxRounds aborts runaway simulations when positive.
	MaxRounds uint64
	// Observe, when non-nil, receives per-round per-worker telemetry
	// (internal/obs); workers are numbered host*ThreadsPerHost+thread.
	Observe obs.Probe
}

// HybridKernel is the multi-host Unison kernel: the round engine with one
// worker group per simulation host.
type HybridKernel struct {
	cfg HybridConfig
}

// NewHybrid returns a hybrid kernel with cfg.
func NewHybrid(cfg HybridConfig) *HybridKernel {
	if cfg.ThreadsPerHost <= 0 {
		cfg.ThreadsPerHost = 1
	}
	return &HybridKernel{cfg: cfg}
}

// Name implements sim.Kernel.
func (k *HybridKernel) Name() string {
	return fmt.Sprintf("hybrid(t=%d/host)", k.cfg.ThreadsPerHost)
}

// HybridPartition computes the two-level partition: Algorithm 1 applied
// within each host's subgraph (links crossing hosts are always cut).
// It returns the node→LP map, the LP→host map, and the global lookahead.
func HybridPartition(nodes int, hostOf []int32, links []sim.LinkInfo) (lpOf []int32, hostOfLP []int32, lookahead sim.Time, err error) {
	if len(hostOf) != nodes {
		return nil, nil, 0, errors.New("core: HostOf must cover every node")
	}
	bound := medianDelay(links)
	adj := buildAdj(nodes, links, func(l *sim.LinkInfo) bool {
		return l.Up && hostOf[l.A] == hostOf[l.B] && (l.Delay < bound || !l.Stateless)
	})
	lpOf = make([]int32, nodes)
	for i := range lpOf {
		lpOf[i] = -1
	}
	var count int32
	queue := make([]int32, 0, nodes)
	for v := 0; v < nodes; v++ {
		if lpOf[v] >= 0 {
			continue
		}
		id := count
		count++
		hostOfLP = append(hostOfLP, hostOf[v])
		queue = append(queue[:0], int32(v))
		lpOf[v] = id
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, w := range adj[u] {
				if lpOf[w] < 0 {
					lpOf[w] = id
					queue = append(queue, w)
				}
			}
		}
	}
	return lpOf, hostOfLP, CutLookahead(lpOf, links), nil
}

// Run implements sim.Kernel.
func (k *HybridKernel) Run(m *sim.Model) (*sim.RunStats, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	pol, err := HybridPolicy(m, k.cfg.HostOf, k.cfg.ThreadsPerHost)
	if err != nil {
		return nil, err
	}
	pol.Name = k.Name()
	pol.Metric, pol.Period = k.cfg.Metric, k.cfg.Period
	pol.MaxRounds, pol.Observe = k.cfg.MaxRounds, k.cfg.Observe
	return pol.Run(m)
}

// HybridPolicy partitions m within the hosts of hostOf (HybridPartition)
// and makes every host a group of threadsPerHost workers over its own LPs.
func HybridPolicy(m *sim.Model, hostOf []int32, threadsPerHost int) (Policy, error) {
	lpOf, hostOfLP, lookahead, err := HybridPartition(m.Nodes, hostOf, m.Links())
	if err != nil {
		return Policy{}, err
	}
	hosts := 0
	for _, h := range hostOf {
		hosts = max(hosts, int(h)+1)
	}
	p := Policy{
		Part:    &Partition{LPOf: lpOf, Count: len(hostOfLP), Lookahead: lookahead},
		GroupOf: hostOfLP,
		Workers: make([]int, hosts),
	}
	for h := range p.Workers {
		p.Workers[h] = threadsPerHost
	}
	return p, nil
}
