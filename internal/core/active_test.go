package core

import (
	"fmt"
	"hash/fnv"
	"testing"

	"unison/internal/des"
	"unison/internal/obs"
	"unison/internal/sim"
)

// wakeModel builds a six-node chain whose links all carry 500 ns, so
// every node is an LP of its own and the lookahead is 500 ns. Its LPs sit
// idle until something wakes them:
//
//   - a token hops around the chain every 600 ns, so each LP is woken
//     only by a cross-LP event;
//   - a global event at 2000 ns inserts into node 1, whose FEL is empty,
//     and into node 5, whose only event lies far beyond the window; both
//     answer with a cross-LP event one lookahead later;
//   - a global event at 4000 ns inserts into node 0 at its own time, the
//     window boundary.
//
// The returned function fingerprints every node's executed event times.
func wakeModel() (*sim.Model, func() uint64) {
	const n = 6
	g := lineTopo(n, 500)
	logs := make([][]sim.Time, n+1) // logs[n] is the public LP
	note := func(ctx *sim.Ctx) {
		i := int(ctx.Node())
		if ctx.Node() == sim.GlobalNode {
			i = n
		}
		logs[i] = append(logs[i], ctx.Now())
	}
	var hop func(ctx *sim.Ctx)
	hop = func(ctx *sim.Ctx) {
		note(ctx)
		if ctx.Now() < 12_000 {
			ctx.Schedule(600, (ctx.Node()+1)%n, hop)
		}
	}
	answer := func(to sim.NodeID) sim.Proc {
		return func(ctx *sim.Ctx) {
			note(ctx)
			ctx.Schedule(500, to, note)
		}
	}
	s := sim.NewSetup()
	s.At(0, 0, hop)
	s.At(90_000, 5, note)
	s.Global(2000, func(ctx *sim.Ctx) {
		note(ctx)
		ctx.ScheduleAt(2000, 1, answer(0))
		ctx.ScheduleAt(2100, 5, answer(4))
	})
	s.Global(4000, func(ctx *sim.Ctx) {
		note(ctx)
		ctx.ScheduleAt(4000, 0, answer(3))
	})
	m := &sim.Model{Nodes: n, Links: g.LinkInfos, Init: s.Events()}
	return m, func() uint64 {
		h := fnv.New64a()
		for i, l := range logs {
			fmt.Fprintln(h, i, l)
		}
		return h.Sum64()
	}
}

// TestIdleLPWakeups pins the active-LP rounds against the two ways an LP
// with nothing inside the window can get work: a global event inserting
// straight into its FEL (phase 2), and a cross-LP event delivered to it
// (phase 3). Every round kernel must run the sequential kernel's events.
func TestIdleLPWakeups(t *testing.T) {
	m, fp := wakeModel()
	ref, err := des.New().Run(m)
	if err != nil {
		t.Fatal(err)
	}
	want := fp()
	hostOf := []int32{0, 0, 0, 1, 1, 1}
	kernels := []struct {
		name string
		run  func(m *sim.Model) (*sim.RunStats, error)
	}{
		{"hybrid", NewHybrid(HybridConfig{HostOf: hostOf, ThreadsPerHost: 2}).Run},
		{"barrier", func(m *sim.Model) (*sim.RunStats, error) {
			pol := BarrierPolicy(FineGrained(m.Nodes, m.Links()))
			return pol.Run(m)
		}},
		{"virtual unison(t=2)", func(m *sim.Model) (*sim.RunStats, error) {
			pol := UnisonPolicy(m, nil, 2)
			return pol.RunVirtual(m, VirtualCost{})
		}},
	}
	for threads := 1; threads <= 4; threads++ {
		kernels = append(kernels, struct {
			name string
			run  func(m *sim.Model) (*sim.RunStats, error)
		}{fmt.Sprintf("unison(t=%d)", threads), New(Config{Threads: threads}).Run})
	}
	for _, k := range kernels {
		m, fp := wakeModel()
		st, err := k.run(m)
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		if st.Events != ref.Events || fp() != want {
			t.Errorf("%s: %d events, fingerprint %x; sequential %d, %x", k.name, st.Events, fp(), ref.Events, want)
		}
	}
}

// TestRescheduleEstimates pins the scheduler's view of LPs that skipped a
// round: an LP that did not run in the round before a reschedule
// estimates 0 under MetricPrevTime, and one that received nothing
// estimates 0 under MetricPendingEvents, whatever it did earlier. The
// virtual executor places the LPs of each round's active list, in LPT
// order, on the worker whose clock is earliest, so the LP ordered first
// runs on worker 0 and the second on worker 1.
//
// In both cases LP A (node 0) is busy in round 0 and quiet in round 1,
// while LP B (node 1) is busy only in round 1; in round 2 both run, B one
// event and A two. With the estimates right, B leads the order and
// worker 0 runs one event; an estimate left over from round 0 would put A
// first and give worker 0 two.
func TestRescheduleEstimates(t *testing.T) {
	const a, b, c = 0, 1, 2
	note := func(*sim.Ctx) {}
	cases := []struct {
		metric Metric
		init   func(s *sim.Setup)
	}{
		// Round 0 runs A three times (window [0, 500)); round 1 runs B
		// (window [1000, 1500)); round 2 runs B once and A twice.
		{MetricPrevTime, func(s *sim.Setup) {
			for _, at := range []sim.Time{0, 1, 2, 2000, 2001} {
				s.At(at, a, note)
			}
			s.At(1000, b, note)
			s.At(1900, b, note)
		}},
		// Round 0 runs C, which sends A three events; round 1 runs them
		// and C again, which sends B one; round 2 runs B once and A twice.
		{MetricPendingEvents, func(s *sim.Setup) {
			s.At(0, c, func(ctx *sim.Ctx) {
				for i := sim.Time(0); i < 3; i++ {
					ctx.Schedule(1000+i, a, note)
				}
			})
			s.At(1000, c, func(ctx *sim.Ctx) { ctx.Schedule(1600, b, note) })
			s.At(2700, a, note)
			s.At(2701, a, note)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.metric.String(), func(t *testing.T) {
			s := sim.NewSetup()
			tc.init(s)
			m := &sim.Model{Nodes: 3, Links: lineTopo(3, 500).LinkInfos, Init: s.Events()}
			reg := obs.NewRegistry(64)
			pol := UnisonPolicy(m, nil, 2)
			pol.Metric, pol.Period, pol.Observe = tc.metric, 1, reg
			if _, err := pol.RunVirtual(m, VirtualCost{EventNS: 100, CacheWays: 1}); err != nil {
				t.Fatal(err)
			}
			var got [2]uint64
			for _, r := range reg.Records() {
				if r.Round == 2 {
					got[r.Worker] = r.Events
				}
			}
			if got != [2]uint64{1, 2} {
				t.Errorf("round 2 events per worker = %v, want [1 2] (B ahead of A in the LPT order)", got)
			}
		})
	}
}
