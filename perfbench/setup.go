package main

import (
	"time"

	"unison/internal/app"
	"unison/internal/netdev"
	"unison/internal/routing"
	"unison/internal/tcp"
	"unison/internal/topology"
	"unison/internal/traffic"
)

// setupReps is how many times each set-up constructor is timed.
const setupReps = 5

type setupTimes struct{ topology, routing, traffic, stack float64 }

// setupLayers times, in milliseconds, the constructors Scenario.Build
// calls for a fat-tree with ECMP, DropTail, NewReno and gRPC sizes: the
// topology, the router, the flow list and the network stack (flow
// monitor, devices, transport). The assembled Sim must hash like Build's,
// so the parts timed are the parts Build runs.
func setupLayers(sc *app.Scenario, t *tally) setupTimes {
	var topo, route, traf, stack []float64
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	var s *app.Sim
	for i := 0; i < setupReps; i++ {
		settle()
		t0 := time.Now()
		ft := topology.BuildFatTree(topology.FatTreeK(sc.Topology.K, int64(sc.Topology.BwGbps*1e9), sc.Topology.Delay.T()))
		t1 := time.Now()
		router := routing.NewECMP(ft.Graph, routing.Hops, sc.Seed)
		t2 := time.Now()
		flows := traffic.Generate(traffic.Config{
			Seed:         sc.Seed,
			Hosts:        ft.Hosts(),
			Sizes:        traffic.GRPCCDF(),
			Load:         sc.Traffic.Load,
			BisectionBps: ft.Graph.BisectionBandwidth(),
			End:          sc.Stop.T() * 3 / 4,
			IncastRatio:  sc.Traffic.Incast,
		})
		t3 := time.Now()
		s = app.New(ft.Graph, router, app.Config{
			Seed:   sc.Seed,
			NetCfg: netdev.DefaultConfig(sc.Seed),
			TCPCfg: tcp.DefaultConfig(),
			StopAt: sc.Stop.T(),
			Flows:  flows,
		})
		t4 := time.Now()
		topo = append(topo, ms(t1.Sub(t0)))
		route = append(route, ms(t2.Sub(t1)))
		traf = append(traf, ms(t3.Sub(t2)))
		stack = append(stack, ms(t4.Sub(t3)))
	}
	b, _, err := build(sc)
	t.expect(err == nil && b.Sim.ConfigHash() == s.ConfigHash(),
		"set-up layers do not assemble the scenario Build assembles (build error %v)", err)
	return setupTimes{median(topo), median(route), median(traf), median(stack)}
}
