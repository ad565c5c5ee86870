package unison_test

import (
	"testing"

	"unison/internal/core"
	"unison/internal/des"
	"unison/internal/flowmon"
	"unison/internal/netdev"
	"unison/internal/netobs"
	"unison/internal/pdes"
	"unison/internal/routing"
	"unison/internal/sim"
	"unison/internal/tcp"
	"unison/internal/topology"
	"unison/internal/trace"
	"unison/internal/traffic"
)

// This file extends artifact byte-identity to the streaming workload
// path: a lazily pumped traffic source must produce the exact same run —
// fingerprint, series.csv, trace.pcapng, flow_report.json — as the
// materialized flow slice it replaces, and must stay kernel-independent.
// Together the two tests pin the memory-lean path to the semantics of
// the code it made obsolete.

const streamStop = 2 * sim.Millisecond

// streamPieces builds the k=8 scenario with the workload attached either
// as a materialized slice (the legacy Attach path) or as a pumped stream
// (AttachStream). Everything else is identical.
func streamPieces(stop sim.Time, streaming bool) (*sim.Model, *netdev.Network, *flowmon.Monitor, *topology.FatTree) {
	ft := topology.BuildFatTree(topology.FatTreeK(8, 1_000_000_000, 3*sim.Microsecond))
	tc := traffic.Config{
		Seed: obsSeed, Hosts: ft.Hosts(), Sizes: traffic.GRPCCDF(), Load: 0.4,
		BisectionBps: ft.BisectionBandwidth(), Start: 0, End: stop / 2,
	}
	network := netdev.New(ft.Graph, routing.NewECMP(ft.Graph, routing.Hops, obsSeed), netdev.DefaultConfig(obsSeed))
	s := sim.NewSetup()
	var mon *flowmon.Monitor
	if streaming {
		mon = flowmon.NewMonitor(traffic.Count(tc))
		stack := tcp.NewStack(network, tcp.DefaultConfig(), mon)
		stack.AttachStream(s, traffic.NewStream(tc), 0)
	} else {
		flows := traffic.Generate(tc)
		mon = flowmon.NewMonitor(len(flows))
		stack := tcp.NewStack(network, tcp.DefaultConfig(), mon)
		stack.Attach(s, flows)
	}
	s.Global(stop, func(ctx *sim.Ctx) { ctx.Stop() })
	m := &sim.Model{Nodes: ft.N(), Links: ft.LinkInfos, Init: s.Events(), StopAt: stop}
	return m, network, mon, ft
}

// streamObsRun executes the k=8 scenario under one kernel with sampling
// and packet tracing enabled and renders the artifact bundle.
func streamObsRun(t *testing.T, k sim.Kernel, streaming bool) obsArtifacts {
	t.Helper()
	m, network, mon, ft := streamPieces(streamStop, streaming)
	network.Tracer = trace.NewCollector(ft.N(), 0)
	sampler := netobs.NewSampler(netobs.SamplerConfig{})
	network.AttachSampler(sampler)
	if _, err := k.Run(m); err != nil {
		t.Fatalf("%s: %v", k.Name(), err)
	}
	sampler.Flush()
	return renderArtifacts(t, sampler.Rows(), sampler.Interval(), network.Tracer.Merged(), mon)
}

// TestStreamingMatchesMaterializedArtifacts is the streaming acceptance
// criterion: pumping the workload on demand is invisible in every
// exported byte, not just in the monitor fingerprint.
func TestStreamingMatchesMaterializedArtifacts(t *testing.T) {
	materialized := streamObsRun(t, des.New(), false)
	streamed := streamObsRun(t, des.New(), true)
	if materialized.fp == 0 {
		t.Fatal("degenerate baseline fingerprint")
	}
	t.Logf("k=8 materialized baseline: csv=%dB pcap=%dB report=%dB fp=%x",
		len(materialized.csv), len(materialized.pcap), len(materialized.report), materialized.fp)
	compareArtifacts(t, "streaming", streamed, materialized)
}

// TestStreamingProbesInvisible pins observation transparency at k=8: a
// run with no sampler and no tracer attached reproduces the probed run's
// fingerprint exactly — probes read the simulation, never steer it.
func TestStreamingProbesInvisible(t *testing.T) {
	probed := streamObsRun(t, des.New(), true)
	m, _, mon, _ := streamPieces(streamStop, true)
	if _, err := des.New().Run(m); err != nil {
		t.Fatal(err)
	}
	if got := mon.Fingerprint(); got != probed.fp {
		t.Fatalf("unprobed fingerprint %x != probed %x", got, probed.fp)
	}
}

// TestStreamingArtifactsIdenticalAcrossKernels runs the streaming k=8
// scenario under every globals-capable kernel. NullMessageKernel and the
// distributed runtime are excluded: they reject global events, so the
// pump cannot attach there and those kernels keep the materialized path
// (AttachStream documents this contract).
func TestStreamingArtifactsIdenticalAcrossKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("k=8 multi-kernel sweep in -short mode")
	}
	_, _, _, ft := streamPieces(streamStop, true)
	manual := pdes.FatTreeManual(ft, 4)

	base := streamObsRun(t, des.New(), true)
	kernels := []sim.Kernel{
		core.New(core.Config{Threads: 2}),
		core.New(core.Config{Threads: 4}),
		core.NewHybrid(core.HybridConfig{HostOf: manual, ThreadsPerHost: 2}),
		&pdes.BarrierKernel{Part: core.Manual(manual, ft.LinkInfos())},
	}
	for _, k := range kernels {
		compareArtifacts(t, k.Name(), streamObsRun(t, k, true), base)
	}
}
