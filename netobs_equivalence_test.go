package unison_test

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"unison/internal/core"
	"unison/internal/des"
	"unison/internal/dist"
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

// This file holds the observability counterpart of the cross-kernel
// equivalence test: the run artifacts themselves — series.csv,
// trace.pcapng, flow_report.json — must be byte-identical no matter which
// kernel produced them, including a 2-rank distributed run over loopback
// TCP. The scenario mirrors internal/dist's harness so the distributed
// hosts reconstruct the exact same workload.

const (
	obsSeed = 42
	obsStop = 2 * sim.Millisecond
)

// obsPieces builds the deterministic k=4 fat-tree scenario every leg of
// the test runs (same construction as unidist's buildScenario).
func obsPieces(stop sim.Time) (*sim.Model, *netdev.Network, *flowmon.Monitor, *topology.FatTree) {
	ft := topology.BuildFatTree(topology.FatTreeK(4, 1_000_000_000, 3*sim.Microsecond))
	flows := traffic.Generate(traffic.Config{
		Seed: obsSeed, Hosts: ft.Hosts(), Sizes: traffic.GRPCCDF(), Load: 0.4,
		BisectionBps: ft.BisectionBandwidth(), Start: 0, End: stop / 2,
	})
	mon := flowmon.NewMonitor(len(flows))
	network := netdev.New(ft.Graph, routing.NewECMP(ft.Graph, routing.Hops, obsSeed), netdev.DefaultConfig(obsSeed))
	stack := tcp.NewStack(network, tcp.DefaultConfig(), mon)
	s := sim.NewSetup()
	stack.Attach(s, flows)
	s.Global(stop, func(ctx *sim.Ctx) { ctx.Stop() })
	m := &sim.Model{Nodes: ft.N(), Links: ft.LinkInfos, Init: s.Events(), StopAt: stop}
	return m, network, mon, ft
}

// obsArtifacts is the serialized bundle subset whose bytes must agree.
type obsArtifacts struct {
	csv    []byte
	pcap   []byte
	report []byte
	fp     uint64
}

func renderArtifacts(t *testing.T, rows []netobs.Row, interval sim.Time, recs []trace.Record, mon *flowmon.Monitor) obsArtifacts {
	t.Helper()
	var csv, pcap, rep bytes.Buffer
	if err := netobs.WriteCSV(&csv, rows, interval); err != nil {
		t.Fatal(err)
	}
	if err := netobs.WritePcapng(&pcap, recs, netobs.FlowTable(mon)); err != nil {
		t.Fatal(err)
	}
	if err := mon.Report(flowmon.ReportConfig{RefBandwidthBps: 1_000_000_000}).WriteJSON(&rep); err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no sampler rows produced; scenario too idle to compare")
	}
	if len(recs) == 0 {
		t.Fatal("no trace records produced")
	}
	return obsArtifacts{csv.Bytes(), pcap.Bytes(), rep.Bytes(), mon.Fingerprint()}
}

// obsRun executes the scenario under one kernel with sampling and packet
// tracing enabled and renders the artifacts.
func obsRun(t *testing.T, k sim.Kernel) obsArtifacts {
	t.Helper()
	m, network, mon, ft := obsPieces(obsStop)
	network.Tracer = trace.NewCollector(ft.N(), 0)
	sampler := netobs.NewSampler(netobs.SamplerConfig{})
	network.AttachSampler(sampler)
	if _, err := k.Run(m); err != nil {
		t.Fatalf("%s: %v", k.Name(), err)
	}
	sampler.Flush()
	return renderArtifacts(t, sampler.Rows(), sampler.Interval(), network.Tracer.Merged(), mon)
}

func compareArtifacts(t *testing.T, name string, got, want obsArtifacts) {
	t.Helper()
	if got.fp != want.fp {
		t.Errorf("%s: fingerprint %x != %x", name, got.fp, want.fp)
	}
	if !bytes.Equal(got.csv, want.csv) {
		t.Errorf("%s: series.csv differs (%d vs %d bytes)", name, len(got.csv), len(want.csv))
	}
	if !bytes.Equal(got.pcap, want.pcap) {
		t.Errorf("%s: trace.pcapng differs (%d vs %d bytes)", name, len(got.pcap), len(want.pcap))
	}
	if !bytes.Equal(got.report, want.report) {
		t.Errorf("%s: flow_report.json differs (%d vs %d bytes)", name, len(got.report), len(want.report))
	}
}

// TestArtifactsIdenticalAcrossKernels is the acceptance criterion of the
// observability layer: the exported artifacts are a pure function of the
// seeded scenario, not of the kernel that executed it.
func TestArtifactsIdenticalAcrossKernels(t *testing.T) {
	_, _, _, ft := obsPieces(obsStop)
	manual := pdes.FatTreeManual(ft, 4)

	base := obsRun(t, des.New())
	if base.fp == 0 {
		t.Fatal("degenerate baseline fingerprint")
	}
	t.Logf("sequential baseline: csv=%dB pcap=%dB report=%dB fp=%x",
		len(base.csv), len(base.pcap), len(base.report), base.fp)

	kernels := []sim.Kernel{
		core.New(core.Config{Threads: 2}),
		core.New(core.Config{Threads: 4}),
		core.NewHybrid(core.HybridConfig{HostOf: manual, ThreadsPerHost: 2}),
		&pdes.BarrierKernel{Part: core.Manual(manual, ft.LinkInfos())},
		&pdes.NullMessageKernel{Part: core.Manual(manual, ft.LinkInfos())},
	}
	for _, k := range kernels {
		compareArtifacts(t, k.Name(), obsRun(t, k), base)
	}
}

// runDistributedObserved mirrors internal/dist's loopback harness with
// sampling and tracing enabled on every host; the coordinator merges the
// per-rank rows and trace records via CoordConfig.Net.
func runDistributedObserved(t *testing.T, hosts int) obsArtifacts {
	t.Helper()
	_, _, _, ft := obsPieces(obsStop)
	hostOf := pdes.FatTreeManual(ft, hosts)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	netData := &dist.NetData{}
	type coordOut struct {
		mon *flowmon.Monitor
		err error
	}
	coordCh := make(chan coordOut, 1)
	flows := flowCount(obsStop)
	go func() {
		mon, _, err := dist.RunCoordinator(ln, dist.CoordConfig{
			Hosts: hosts, StopAt: obsStop, Flows: flows,
			MaxRounds: 10_000_000, Timeout: 30 * time.Second, Net: netData,
		})
		coordCh <- coordOut{mon, err}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, hosts)
	for h := 0; h < hosts; h++ {
		wg.Add(1)
		go func(h int32) {
			defer wg.Done()
			m, network, mon, ft := obsPieces(obsStop)
			network.Tracer = trace.NewCollector(ft.N(), 0)
			network.AttachSampler(netobs.NewSampler(netobs.SamplerConfig{}))
			_, err := dist.RunHost(dist.HostConfig{
				ID: h, Addr: ln.Addr().String(), HostOf: hostOf, StopAt: obsStop,
				Timeout: 30 * time.Second, DialAttempts: 3,
			}, m, network, mon)
			if err != nil {
				errs <- err
			}
		}(int32(h))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	out := <-coordCh
	if out.err != nil {
		t.Fatal(out.err)
	}
	return renderArtifacts(t, netData.Rows, netobs.DefaultInterval, netData.Trace, out.mon)
}

func flowCount(stop sim.Time) int {
	_, _, mon, _ := obsPieces(stop)
	return mon.Flows()
}

// TestArtifactsIdenticalDistributed extends byte-identity to a 2-rank
// distributed run: every device and flow endpoint is owned by exactly one
// rank, so the coordinator's merge must reproduce the single-process
// artifacts exactly.
func TestArtifactsIdenticalDistributed(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed loopback run in -short mode")
	}
	base := obsRun(t, des.New())
	compareArtifacts(t, "dist(2)", runDistributedObserved(t, 2), base)
}

// TestFlowReportMergeAcrossRanks is the MergeFrom/Fingerprint satellite:
// splitting a monitor's records across two partial monitors (as the
// distributed gather does) and merging them back must reproduce the
// original fingerprint and the original flow report bytes.
func TestFlowReportMergeAcrossRanks(t *testing.T) {
	m, network, mon, _ := obsPieces(obsStop)
	sampler := netobs.NewSampler(netobs.SamplerConfig{})
	network.AttachSampler(sampler)
	if _, err := des.New().Run(m); err != nil {
		t.Fatal(err)
	}
	senders, recvs := mon.Export()

	// Partition flow records by parity into two "ranks".
	n := mon.Flows()
	mkPartial := func(keep func(i int) bool) *flowmon.Monitor {
		ps := make([]flowmon.SenderRec, n)
		pr := make([]flowmon.RecvRec, n)
		for i := 0; i < n; i++ {
			if keep(i) {
				ps[i] = senders[i]
				pr[i] = recvs[i]
			}
		}
		p := flowmon.NewMonitor(n)
		p.Import(ps, pr)
		return p
	}
	even := mkPartial(func(i int) bool { return i%2 == 0 })
	odd := mkPartial(func(i int) bool { return i%2 == 1 })

	merged := flowmon.NewMonitor(n)
	merged.MergeFrom(even)
	merged.MergeFrom(odd)
	if merged.Fingerprint() != mon.Fingerprint() {
		t.Fatalf("merged fingerprint %x != original %x", merged.Fingerprint(), mon.Fingerprint())
	}
	var want, got bytes.Buffer
	cfg := flowmon.ReportConfig{RefBandwidthBps: 1_000_000_000}
	if err := mon.Report(cfg).WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if err := merged.Report(cfg).WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("merged flow report differs from original")
	}
}
