package core

import (
	"unison/internal/obs"
	"unison/internal/sim"
)

// VirtualCost is what the virtual executor charges, in virtual
// nanoseconds. Its constants come from the virtual testbed's CostModel.
type VirtualCost struct {
	// EventNS is charged per executed event, plus MissNS for every miss
	// of the CacheWays-way cache-locality model (public-LP events only
	// pay EventNS).
	EventNS, MissNS int64
	CacheWays       int
	// MsgNS is charged per received cross-LP event.
	MsgNS int64
	// SortPerLPNS is charged per LP on every rescheduling round.
	SortPerLPNS int64
	// RoundNS is the fixed synchronization charge of one round: its
	// barrier crossings and collectives.
	RoundNS int64
	// Speeds gives each worker a relative speed (nil = all 1.0): a
	// worker's modeled busy time is cost / speed.
	Speeds []float64
	// SpeedAware places each LP on the worker with the earliest projected
	// finish for its estimate instead of the earliest available one.
	SpeedAware bool
}

// runVirtual is the virtual executor: every worker owns a virtual clock,
// and one goroutine runs the four phases of each round worker by worker.
// Phase 1 is the live kernel's longest-job-first pull replayed as list
// scheduling: each LP of a group's active list, in the group's order,
// goes to the group's worker whose clock is earliest. Phase 3 visits
// every LP, so each worker's FEL depth counts the LPs placed on it. The
// simulation itself executes for real, so results match the live
// executor; only time is modeled.
func (e *engine) runVirtual(c *VirtualCost) {
	n := len(e.workers)
	speeds := c.Speeds
	if speeds == nil {
		speeds = make([]float64, n)
		for i := range speeds {
			speeds[i] = 1
		}
	}
	e.outboxes = []outbox{newOutbox(len(e.lps))}
	sinks := make([]*workerSink, n)
	ctxs := make([]*sim.Ctx, n)
	for w := range sinks {
		sinks[w] = &workerSink{e: e, w: w, ob: &e.outboxes[0]}
		ctxs[w] = sim.NewCtx(sinks[w], w)
	}
	probe := e.pol.Observe
	avail := make([]int64, n)
	busyP := make([]int64, n)
	busyM := make([]int64, n)
	evStart := make([]uint64, n)
	recvd := make([]uint64, n)
	depth := make([]uint64, n)
	migr := make([]uint64, n)
	var recv []sim.Event
	var rec obs.RoundRecord

	for !e.done {
		roundIdx := e.round
		roundLBTS := e.lbts
		e.outboxes[0].reset()
		for w := 0; w < n; w++ {
			avail[w], busyP[w], busyM[w] = 0, 0, 0
			recvd[w], depth[w], migr[w] = 0, 0, 0
			evStart[w] = e.workers[w].events
			e.workerMin[w] = sim.MaxTime
		}
		// Phase 1.
		var totalCost, maxLP int64
		for gi := range e.groups {
			g := &e.groups[gi]
			ws := &e.workers[g.w0]
			ws.act, _ = e.activate(g, ws.act[:0])
			ws.got = ws.got[:0]
			for _, lpIdx := range ws.act {
				lp := &e.lps[lpIdx]
				var w int
				if c.SpeedAware {
					w = earliestFinish(avail, speeds, g.w0, g.nw, lp.est)
				} else {
					w = earliest(avail, g.w0, g.nw)
				}
				_, cost := e.runLP(ctxs[w], sinks[w], lpIdx)
				lp.lastP = cost
				wall := int64(float64(cost) / speeds[w])
				avail[w] += wall
				busyP[w] += wall
				if probe != nil && lp.migrated(w) {
					migr[w]++
				}
				totalCost += cost
				maxLP = max(maxLP, cost)
			}
		}
		span1 := maxOf(avail)
		// Phase 2.
		glob := e.globals(ctxs[0], sinks[0])
		// Phase 3: receiving is placed like phase 1, in LP order.
		for w := range avail {
			avail[w] = 0
		}
		for gi := range e.groups {
			g := &e.groups[gi]
			ws := &e.workers[g.w0]
			for _, lpIdx := range g.lps {
				w := earliest(avail, g.w0, g.nw)
				k := e.receive(lpIdx, &recv)
				if k > 0 {
					ws.got = append(ws.got, lpIdx)
				}
				mc := int64(float64(int64(k)*c.MsgNS) / speeds[w])
				avail[w] += mc
				busyM[w] += mc
				e.workerMin[w] = min(e.workerMin[w], e.settle(lpIdx, &e.workers[w]))
				recvd[w] += uint64(k)
				depth[w] += uint64(e.lps[lpIdx].depth)
			}
		}
		span3 := maxOf(avail)
		// Phase 4, with the rescheduling sort charged to worker 0.
		e.advance()
		var sched int64
		if e.rescheduleDue() {
			sched = int64(len(e.lps)) * c.SortPerLPNS
		}
		total := span1 + glob + span3 + sched + c.RoundNS
		e.virtual += total
		for w := 0; w < n; w++ {
			proc, msg := busyP[w], busyM[w]
			if w == 0 {
				proc += glob
				msg += sched
			}
			ws := &e.workers[w]
			ws.p += proc
			ws.m += msg
			ws.s += total - proc - msg
			if probe != nil {
				rec = obs.RoundRecord{
					Round: roundIdx, Worker: int32(w), LBTS: roundLBTS,
					Events: ws.events - evStart[w],
					ProcNS: proc, SyncNS: total - proc - msg, MsgNS: msg,
					WaitGlobalNS: span1 - busyP[w],
					Recvs:        recvd[w], FELDepth: depth[w], Migrations: migr[w],
				}
				probe.OnRound(&rec)
			}
		}
		if e.pol.RecordRounds {
			// The ideal makespan splits the round's work perfectly, but
			// cannot split an LP.
			ideal := max((totalCost+int64(n)-1)/int64(n), maxLP)
			e.trace = append(e.trace, sim.RoundSample{
				LBTS: roundLBTS, PerWorker: append([]int64(nil), busyP...),
				Makespan: total, Phase1: span1, Ideal: ideal,
			})
		}
	}
}

// earliest returns the first of the nw workers from w0 whose clock is
// earliest.
func earliest(avail []int64, w0, nw int) int {
	best := w0
	for w := w0 + 1; w < w0+nw; w++ {
		if avail[w] < avail[best] {
			best = w
		}
	}
	return best
}

// earliestFinish returns the first of the nw workers from w0 that would
// finish a job of estimated cost est earliest (LPT on uniform machines).
func earliestFinish(avail []int64, speeds []float64, w0, nw int, est int64) int {
	best := w0
	bestFin := float64(avail[w0]) + float64(est)/speeds[w0]
	for w := w0 + 1; w < w0+nw; w++ {
		if fin := float64(avail[w]) + float64(est)/speeds[w]; fin < bestFin {
			best, bestFin = w, fin
		}
	}
	return best
}

func maxOf(vs []int64) int64 {
	var m int64
	for _, v := range vs {
		m = max(m, v)
	}
	return m
}
