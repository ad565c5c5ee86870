package core

import (
	"sync"

	"unison/internal/metrics"
	"unison/internal/obs"
	"unison/internal/sim"
	"unison/internal/syncx"
)

// runLive is the live executor: one goroutine per worker, each running
// the four phases of every round on real clocks (§5.1, Fig 7). The
// serial phases 2 and 4 fuse into the phase barriers.
func (e *engine) runLive() {
	n := len(e.workers)
	e.outboxes = make([]outbox, n)
	for w := range e.outboxes {
		e.outboxes[w] = newOutbox(len(e.lps))
	}
	bar := syncx.NewBarrier(n)
	// roundP is each worker's phase-1 wall time of the current round, kept
	// only for the round trace.
	var roundP []int64
	if e.pol.RecordRounds {
		roundP = make([]int64, n)
	}
	var wg sync.WaitGroup
	for w := 1; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e.liveWorker(w, bar, roundP)
		}(w)
	}
	e.liveWorker(0, bar, roundP)
	wg.Wait()
}

// liveWorker is worker w's round loop.
func (e *engine) liveWorker(w int, bar *syncx.Barrier, roundP []int64) {
	gi := e.groupOf[w]
	g := &e.groups[gi]
	ob := &e.outboxes[w]
	sink := &workerSink{e: e, w: w, ob: ob}
	ctx := sim.NewCtx(sink, w)
	ws := &e.workers[w]
	// timed: only MetricPrevTime needs per-LP wall-clock estimates.
	timed := e.pol.Metric == MetricPrevTime
	probe := e.pol.Observe
	var clock lpClock
	var recv []sim.Event // phase-3 gather scratch, reused across rounds
	// rec escapes through the probe interface call; keeping it outside the
	// loop makes that one allocation per run, not one per round. Probes
	// must copy (the pointee is only valid during OnRound).
	var rec obs.RoundRecord
	// The serial sections run on whichever worker arrives last, with every
	// other worker parked. Phase 2 files its cost under that worker's S,
	// where the paper files the collective step of a round (§3.2).
	phase2 := func() {
		e.globals(ctx, sink)
		for gi := range e.groups {
			e.groups[gi].cursor3.Store(0)
		}
	}
	phase4 := func() {
		if roundP != nil {
			samp := sim.RoundSample{LBTS: e.lbts, PerWorker: append([]int64(nil), roundP...)}
			for _, p := range roundP {
				samp.Makespan = max(samp.Makespan, p)
			}
			samp.Phase1 = samp.Makespan
			e.trace = append(e.trace, samp)
		}
		if probe != nil {
			for v := range e.workers {
				ws := &e.workers[v]
				e.groups[e.groupOf[v]].depth += ws.depth
				ws.depth = 0
			}
		}
		e.advance()
		for gi := range e.groups {
			e.groups[gi].cursor1.Store(0)
		}
	}
	var sw metrics.Stopwatch
	sw.Start()

	for {
		// e.round and e.lbts are stable here: they are only written in the
		// phase-4 serial section, behind the barrier this worker left.
		roundIdx := e.round
		roundLBTS := e.lbts
		evStart := ws.events
		var migrations uint64
		// Phase 1: process events within the window, pulling the group's
		// active LPs in longest-estimated-job-first order. Every worker of
		// the group builds the same list from e.next, which no worker
		// writes before the phase-2 barrier. The previous round's staged
		// events were all delivered in phase 3, so the outbox can be
		// recycled before the first Put.
		ob.reset()
		var idleMin sim.Time
		ws.act, idleMin = e.activate(g, ws.act[:0])
		ws.ran = ws.ran[:0]
		nLP := int64(len(ws.act))
		if timed {
			clock.start()
		}
		for {
			i := g.cursor1.Add(1) - 1
			if i >= nLP {
				break
			}
			lpIdx := ws.act[i]
			nev, _ := e.runLP(ctx, sink, lpIdx)
			ws.ran = append(ws.ran, lpIdx)
			if timed && clock.note(lpIdx, nev) {
				clock.flush(e.lps)
			}
			if probe != nil && e.lps[lpIdx].migrated(w) {
				migrations++
			}
		}
		if timed {
			clock.flush(e.lps)
		}
		p1 := sw.Lap()
		ws.p += p1
		if roundP != nil {
			roundP[w] = p1
		}
		sends := uint64(len(ob.buf))
		bar.WaitSerial(phase2)
		s1 := sw.Lap()
		ws.s += s1

		// Phase 3: receive for the group's received list, then settle the
		// LPs this worker ran that received nothing (an LP that received
		// settles on its receiver). With the idle LPs' unchanged times,
		// this worker's minimum covers its share of Equation 2.
		ws.got = staged(e.outboxes, e.pol.GroupOf, gi, ws.got[:0]) //unison:owner transfer phase-2 barrier published every worker's phase-1 puts
		locMin := idleMin
		n3 := int64(len(ws.got))
		var recvd uint64
		for {
			i := g.cursor3.Add(1) - 1
			if i >= n3 {
				break
			}
			lpIdx := ws.got[i]
			recvd += uint64(e.receive(lpIdx, &recv))
			locMin = min(locMin, e.settle(lpIdx, ws))
		}
		for _, lpIdx := range ws.ran {
			if !stagedAny(e.outboxes, lpIdx) { //unison:owner transfer phase-2 barrier published every worker's phase-1 puts
				locMin = min(locMin, e.settle(lpIdx, ws))
			}
		}
		e.workerMin[w] = locMin
		mNS := sw.Lap()
		ws.m += mNS
		bar.WaitSerial(phase4)
		s2 := sw.Lap()
		ws.s += s2
		if probe != nil {
			rec = obs.RoundRecord{
				Round: roundIdx, Worker: int32(w), LBTS: roundLBTS,
				Events: ws.events - evStart,
				ProcNS: p1, SyncNS: s1 + s2, MsgNS: mNS, WaitGlobalNS: s1,
				Sends: sends, SendBytes: sends * obs.EventBytes,
				Recvs: recvd, FELDepth: g.depthShare(w), Migrations: migrations,
			}
			probe.OnRound(&rec)
		}
		if e.done {
			return
		}
	}
}
