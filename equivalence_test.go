package unison_test

import (
	"testing"

	"unison"
	"unison/internal/app"
	"unison/internal/core"
	"unison/internal/pdes"
	"unison/internal/sim"
	"unison/internal/tcp"
	"unison/internal/topology"
	"unison/internal/traffic"
	"unison/internal/vtime"
)

// buildFatTreeScenario constructs a fresh, deterministic k=4 fat-tree
// scenario. Every call with the same seed yields an identical workload,
// so each kernel can run its own instance and results can be compared.
func buildFatTreeScenario(seed uint64, incast float64, stop sim.Time) (*app.Sim, *topology.FatTree) {
	ft := topology.BuildFatTree(topology.FatTreeK(4, 1_000_000_000, 3*sim.Microsecond))
	flows := traffic.Generate(traffic.Config{
		Seed:         seed,
		Hosts:        ft.Hosts(),
		Sizes:        traffic.GRPCCDF(),
		Load:         0.5,
		BisectionBps: ft.BisectionBandwidth(),
		Start:        0,
		End:          stop / 2,
		IncastRatio:  incast,
	})
	sc := app.New(ft.Graph, unison.NewECMP(ft.Graph, unison.Hops, seed), app.Config{
		Seed:   seed,
		NetCfg: unison.DefaultNetConfig(seed),
		TCPCfg: tcp.DefaultConfig(),
		StopAt: stop,
		Flows:  flows,
	})
	return sc, ft
}

type kernelResult struct {
	name   string
	events uint64
	fp     uint64
	fcts   float64
	done   int
}

func runKernel(t *testing.T, k sim.Kernel, seed uint64, incast float64, stop sim.Time) kernelResult {
	t.Helper()
	sc, _ := buildFatTreeScenario(seed, incast, stop)
	st, err := k.Run(sc.Model())
	if err != nil {
		t.Fatalf("%s: %v", k.Name(), err)
	}
	if st.Events == 0 {
		t.Fatalf("%s: no events executed", k.Name())
	}
	return kernelResult{
		name:   k.Name(),
		events: st.Events,
		fp:     sc.Mon.Fingerprint(),
		fcts:   sc.Mon.MeanFCTms(),
		done:   sc.Mon.Completed(),
	}
}

// TestCrossKernelEquivalence asserts the repository's strongest
// correctness property: every kernel — sequential DES, live Unison at
// several thread counts, live barrier PDES, live null-message PDES, and
// the virtual-testbed variants — produces bit-identical simulation
// results for the same seed (DESIGN.md §2).
func TestCrossKernelEquivalence(t *testing.T) {
	const seed = 42
	const stop = 4 * sim.Millisecond
	sc, ft := buildFatTreeScenario(seed, 0.2, stop)
	_ = sc
	manual := pdes.FatTreeManual(ft, 4)

	base := runKernel(t, unison.NewSequential(), seed, 0.2, stop)
	if base.done == 0 {
		t.Fatalf("no flows completed under sequential DES; scenario too short")
	}
	t.Logf("sequential: events=%d completed=%d meanFCT=%.3fms", base.events, base.done, base.fcts)

	kernels := []sim.Kernel{
		core.New(core.Config{Threads: 1}),
		core.New(core.Config{Threads: 2}),
		core.New(core.Config{Threads: 4}),
		core.New(core.Config{Threads: 4, Metric: core.MetricPendingEvents}),
		core.New(core.Config{Threads: 4, Metric: core.MetricNone}),
		&pdes.BarrierKernel{Part: core.Manual(manual, ft.LinkInfos())},
		core.NewHybrid(core.HybridConfig{HostOf: manual, ThreadsPerHost: 2}),
		vtimeKernel{vtime.Config{Algo: vtime.Sequential}},
		vtimeKernel{vtime.Config{Algo: vtime.Barrier, LPOf: manual}},
		vtimeKernel{vtime.Config{Algo: vtime.Unison, Cores: 4}},
		vtimeKernel{vtime.Config{Algo: vtime.Unison, Cores: 16, Metric: core.MetricPendingEvents}},
	}
	for _, k := range kernels {
		res := runKernel(t, k, seed, 0.2, stop)
		if res.fp != base.fp {
			t.Errorf("%s: fingerprint %x != sequential %x (meanFCT %.3f vs %.3f)",
				res.name, res.fp, base.fp, res.fcts, base.fcts)
		}
		if res.events != base.events {
			t.Errorf("%s: events %d != sequential %d", res.name, res.events, base.events)
		}
	}

	// The null-message kernels do not execute the stop global event
	// (one event fewer) but must produce the same simulation results.
	nm := []sim.Kernel{
		&pdes.NullMessageKernel{Part: core.Manual(manual, ft.LinkInfos())},
		vtimeKernel{vtime.Config{Algo: vtime.NullMessage, LPOf: manual}},
	}
	for _, k := range nm {
		res := runKernel(t, k, seed, 0.2, stop)
		if res.fp != base.fp {
			t.Errorf("%s: fingerprint %x != sequential %x", res.name, res.fp, base.fp)
		}
		if res.events != base.events-1 {
			t.Errorf("%s: events %d, want %d (sequential minus the stop event)", res.name, res.events, base.events-1)
		}
	}
}

// vtimeKernel adapts a vtime.Config to sim.Kernel for table-driven tests.
type vtimeKernel struct{ cfg vtime.Config }

func (v vtimeKernel) Name() string { return v.cfg.Algo.String() }
func (v vtimeKernel) Run(m *sim.Model) (*sim.RunStats, error) {
	return vtime.Run(m, v.cfg)
}

// TestRepeatedRunsDeterministic reruns the same kernel several times and
// requires identical fingerprints (Fig 11's property).
func TestRepeatedRunsDeterministic(t *testing.T) {
	const seed = 7
	const stop = 2 * sim.Millisecond
	first := runKernel(t, core.New(core.Config{Threads: 4}), seed, 1.0, stop)
	for i := 0; i < 3; i++ {
		res := runKernel(t, core.New(core.Config{Threads: 4}), seed, 1.0, stop)
		if res.fp != first.fp || res.events != first.events {
			t.Fatalf("run %d: fp=%x events=%d, want fp=%x events=%d",
				i, res.fp, res.events, first.fp, first.events)
		}
	}
}
