package vtime

import (
	"fmt"
	"reflect"
	"testing"

	"unison/internal/core"
	"unison/internal/obs"
	"unison/internal/pdes"
	"unison/internal/sim"
)

// roundShape is what a run's round structure looks like from outside:
// the window of every round and the events executed, cross-LP events
// received and events left pending in it, summed over workers from the
// probe's records.
type roundShape struct {
	rounds uint64
	lbts   []sim.Time
	events []uint64
	recvs  []uint64
	depth  []uint64
}

func shapeOf(t *testing.T, st *sim.RunStats, reg *obs.Registry) roundShape {
	t.Helper()
	s := roundShape{rounds: st.Rounds}
	for _, r := range reg.Records() {
		for uint64(len(s.lbts)) <= r.Round {
			s.lbts = append(s.lbts, r.LBTS)
			s.events = append(s.events, 0)
			s.recvs = append(s.recvs, 0)
			s.depth = append(s.depth, 0)
		}
		if s.lbts[r.Round] != r.LBTS {
			t.Fatalf("%s: round %d: workers disagree on the window (%v vs %v)", st.Kernel, r.Round, s.lbts[r.Round], r.LBTS)
		}
		s.events[r.Round] += r.Events
		s.recvs[r.Round] += r.Recvs
		s.depth[r.Round] += r.FELDepth
	}
	if uint64(len(s.lbts)) != st.Rounds {
		t.Fatalf("%s: records cover %d rounds, RunStats reports %d", st.Kernel, len(s.lbts), st.Rounds)
	}
	return s
}

// TestLiveMatchesVirtualRounds pins the property the round engine exists
// for: a live kernel and its virtual-testbed twin run the same rounds.
// For the barrier, Unison and hybrid policies, the live run (real
// goroutines) and the virtual run (one goroutine, modeled clocks) must
// agree on the round count, every round's window and every round's event
// and received-event totals — and, for the barrier's pinned ranks, on each
// rank's events. Barrier and Unison must also agree on every round's total
// FEL depth (the virtual testbed clears FELDepth on hybrid records).
func TestLiveMatchesVirtualRounds(t *testing.T) {
	_, _, lpOf := scenario(11, 0.3)
	hostOf := make([]int32, len(lpOf))
	for i := range hostOf {
		hostOf[i] = int32(i % 2)
	}
	cases := []struct {
		name string
		live func(m *sim.Model, p obs.Probe) sim.Kernel
		virt Config
	}{
		{"barrier", func(m *sim.Model, p obs.Probe) sim.Kernel {
			return &pdes.BarrierKernel{Part: core.Manual(lpOf, m.Links()), Observe: p}
		}, Config{Algo: Barrier, LPOf: lpOf}},
		{"unison", func(_ *sim.Model, p obs.Probe) sim.Kernel {
			return core.New(core.Config{Threads: 4, Observe: p})
		}, Config{Algo: Unison, Cores: 4}},
		{"hybrid", func(_ *sim.Model, p obs.Probe) sim.Kernel {
			return core.NewHybrid(core.HybridConfig{HostOf: hostOf, ThreadsPerHost: 2, Observe: p})
		}, Config{Algo: Hybrid, HostOf: hostOf, CoresPerHost: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, monLive, _ := scenario(11, 0.3)
			regLive := obs.NewRegistry(1 << 12)
			live, err := tc.live(m, regLive).Run(m)
			if err != nil {
				t.Fatal(err)
			}
			mv, monVirt, _ := scenario(11, 0.3)
			regVirt := obs.NewRegistry(1 << 12)
			cfg := tc.virt
			cfg.Observe = regVirt
			virt, err := Run(mv, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if monLive.Fingerprint() != monVirt.Fingerprint() {
				t.Fatal("live and virtual runs produced different simulation results")
			}
			ls, vs := shapeOf(t, live, regLive), shapeOf(t, virt, regVirt)
			if ls.rounds == 0 {
				t.Fatal("no rounds")
			}
			if ls.rounds != vs.rounds {
				t.Fatalf("rounds: live %d, virtual %d", ls.rounds, vs.rounds)
			}
			if !reflect.DeepEqual(ls.lbts, vs.lbts) {
				t.Errorf("per-round windows differ")
			}
			if !reflect.DeepEqual(ls.events, vs.events) {
				t.Errorf("per-round event totals differ")
			}
			if !reflect.DeepEqual(ls.recvs, vs.recvs) {
				t.Errorf("per-round received-event totals differ")
			}
			if tc.name != "hybrid" && !reflect.DeepEqual(ls.depth, vs.depth) {
				t.Errorf("per-round FEL depth totals differ")
			}
			if tc.name == "barrier" {
				if got, want := rankEvents(live), rankEvents(virt); got != want {
					t.Errorf("per-rank events: live %s, virtual %s", got, want)
				}
			}
		})
	}
}

// TestLiveMatchesVirtualNullMessage is the null-message twin: the live
// ranks and the virtual meta-simulation run one rank step, so they must
// agree on the simulation results, the event count, the end time and each
// rank's events. CMB has no rounds, and how many null messages flow
// depends on the live scheduling, so neither is compared.
func TestLiveMatchesVirtualNullMessage(t *testing.T) {
	m, monLive, lpOf := scenario(11, 0.3)
	live, err := (&pdes.NullMessageKernel{Part: core.Manual(lpOf, m.Links())}).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	mv, monVirt, _ := scenario(11, 0.3)
	virt, err := Run(mv, Config{Algo: NullMessage, LPOf: lpOf})
	if err != nil {
		t.Fatal(err)
	}
	if monLive.Fingerprint() != monVirt.Fingerprint() {
		t.Fatal("live and virtual runs produced different simulation results")
	}
	if live.Events == 0 || live.Events != virt.Events {
		t.Errorf("events: live %d, virtual %d", live.Events, virt.Events)
	}
	if live.EndTime != virt.EndTime {
		t.Errorf("end time: live %v, virtual %v", live.EndTime, virt.EndTime)
	}
	if got, want := rankEvents(live), rankEvents(virt); got != want {
		t.Errorf("per-rank events: live %s, virtual %s", got, want)
	}
}

func rankEvents(st *sim.RunStats) string {
	ev := make([]uint64, len(st.Workers))
	for i, w := range st.Workers {
		ev[i] = w.Events
	}
	return fmt.Sprint(ev)
}
