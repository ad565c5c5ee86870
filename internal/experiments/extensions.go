package experiments

import (
	"fmt"
	"runtime"

	"unison/internal/core"
	"unison/internal/des"
	"unison/internal/pdes"
	"unison/internal/sim"
	"unison/internal/vtime"
)

// This file adds experiments beyond the paper's figures, validating the
// claims its Discussion section (§7) makes in prose: memory overhead,
// hybrid multi-host scaling, and scheduling on heterogeneous cores.

func init() {
	register("memory", memoryExp)
	register("hybrid", hybridExp)
	register("hetero", heteroExp)
}

// memoryExp — §7 "the memory usage of Unison is comparable with the
// default sequential DES", versus process-per-rank MPI PDES which
// duplicates the model per rank. We measure real allocations of each
// in-process kernel and report the MPI-equivalent footprint (ranks ×
// model size) that a distributed deployment of the baselines implies.
func memoryExp(cfg Config) (*Table, error) {
	k := 8
	stop := sim.Millisecond
	if cfg.Quick {
		k = 4
		stop = 500 * sim.Microsecond
	}
	spec := fatTreeSpec(cfg.Seed, k, 10_000_000_000, 3*sim.Microsecond, stop, 0)
	spec.load = 0.4

	allocMB := func(f func()) float64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	}

	// Model construction footprint (what an MPI rank would duplicate).
	modelMB := allocMB(func() { _ = spec.build().Model() })

	t := &Table{
		ID:      "memory",
		Title:   "Allocation footprint per kernel (k=" + itoa(k) + " fat-tree)",
		Columns: []string{"kernel", "run-alloc(MB)", "vs-sequential", "mpi-equivalent(MB)"},
	}
	manual := manualFatTree(k, k, 10_000_000_000, 3*sim.Microsecond)
	kernels := []struct {
		name string
		mk   func(m *sim.Model) sim.Kernel
		mpi  bool
	}{
		{"sequential", func(*sim.Model) sim.Kernel { return des.New() }, false},
		{"unison(8)", func(*sim.Model) sim.Kernel { return core.New(core.Config{Threads: 8}) }, false},
		{"barrier(8)", func(m *sim.Model) sim.Kernel {
			return &pdes.BarrierKernel{Part: core.Manual(manual, m.Links())}
		}, true},
	}
	var seqMB float64
	for i, kn := range kernels {
		sc := spec.build()
		m := sc.Model()
		kern := kn.mk(m)
		mb := allocMB(func() {
			if _, err := kern.Run(m); err != nil {
				panic(err)
			}
		})
		if i == 0 {
			seqMB = mb
		}
		mpiCell := "-"
		if kn.mpi {
			// A process-per-rank deployment duplicates the model per rank.
			mpiCell = formatFloat(mb + float64(k-1)*modelMB)
		}
		t.AddRow(kn.name, mb, fmt.Sprintf("%.2fx", mb/seqMB), mpiCell)
	}
	t.Note("model construction allocates %.1f MB; §7: Unison's memory is comparable to sequential DES because topology and flows are shared", modelMB)
	return t, nil
}

// hybridExp — the §5.2 hybrid kernel at a fixed total core budget: as the
// budget is split across more simulation hosts, the inter-host all-reduce
// and the loss of cross-host load balancing cost more.
func hybridExp(cfg Config) (*Table, error) {
	k := 8
	stop := 500 * sim.Microsecond
	totalCores := 16
	hostCounts := []int{1, 2, 4, 8}
	if cfg.Quick {
		stop = 200 * sim.Microsecond
		hostCounts = []int{1, 2, 4}
		totalCores = 8
	}
	spec := fatTreeSpec(cfg.Seed, k, profileBW, 3*sim.Microsecond, stop, 0.3)
	uni, _, err := vrun(spec, vtime.Config{Algo: vtime.Unison, Cores: totalCores})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "hybrid",
		Title:   fmt.Sprintf("Hybrid kernel at a fixed %d-core budget (k=%d fat-tree)", totalCores, k),
		Columns: []string{"hosts", "cores/host", "T(s)", "overhead-vs-unison"},
	}
	t.AddRow(1, totalCores, secondsV(uni), "1.00x")
	for _, hosts := range hostCounts[1:] {
		hostOf := manualFatTree(k, hosts, profileBW, 3*sim.Microsecond)
		st, _, err := vrun(spec, vtime.Config{
			Algo: vtime.Hybrid, HostOf: hostOf, CoresPerHost: totalCores / hosts,
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(hosts, totalCores/hosts, secondsV(st),
			fmt.Sprintf("%.2fx", float64(st.VirtualT)/float64(uni.VirtualT)))
	}
	t.Note("§5.2: hybrid trades some scheduling freedom and an all-reduce per round for multi-host scale")
	return t, nil
}

// heteroExp — §7's open question: Unison's scheduler assumes identical
// cores. We skew half the cores slower and compare the naive scheduler
// against a speed-aware longest-job-first variant.
func heteroExp(cfg Config) (*Table, error) {
	cores := 8
	stop := 500 * sim.Microsecond
	if cfg.Quick {
		stop = 250 * sim.Microsecond
	}
	// Full incast: one huge LP (the victim's ToR) dominates each round.
	// The free-worker pull model self-balances small LPs across uneven
	// cores on its own; the speed-aware scheduler's win is placing the
	// dominant LP on a fast core instead of wherever the cursor lands.
	spec := fatTreeSpec(cfg.Seed, 4, profileBW, 3*sim.Microsecond, stop, 1.0)
	t := &Table{
		ID:      "hetero",
		Title:   "Scheduling on heterogeneous cores (8 threads, half slowed)",
		Columns: []string{"slow-core-speed", "T-naive(s)", "T-speed-aware(s)", "aware-gain"},
	}
	for _, slow := range []float64{1.0, 0.5, 0.25} {
		speeds := make([]float64, cores)
		for i := range speeds {
			speeds[i] = 1
			if i >= cores/2 {
				speeds[i] = slow
			}
		}
		naive, _, err := vrun(spec, vtime.Config{Algo: vtime.Unison, Cores: cores, CoreSpeeds: speeds})
		if err != nil {
			return nil, err
		}
		aware, _, err := vrun(spec, vtime.Config{Algo: vtime.Unison, Cores: cores, CoreSpeeds: speeds, SpeedAware: true})
		if err != nil {
			return nil, err
		}
		t.AddRow(slow, secondsV(naive), secondsV(aware),
			fmt.Sprintf("%.2fx", float64(naive.VirtualT)/float64(aware.VirtualT)))
	}
	t.Note("§7: the default scheduler assumes identical clock frequencies; a speed-aware strategy recovers most of the loss")
	return t, nil
}
