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
	g := &e.groups[e.groupOf[w]]
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
		// LPs in longest-estimated-job-first order. The previous round's
		// staged events were all delivered in phase 3, so the outbox can
		// be recycled before the first Put.
		ob.reset()
		nLP := int64(len(g.order))
		if timed {
			clock.start()
		}
		for {
			i := g.cursor1.Add(1) - 1
			if i >= nLP {
				break
			}
			lpIdx := g.order[i]
			nev, _ := e.runLP(ctx, sink, lpIdx)
			if timed && clock.note(lpIdx, nev) {
				clock.flush(e.lps)
			}
			if probe != nil && nev > 0 && e.lps[lpIdx].migrated(w) {
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

		// Phase 3: receive for the group's LPs and compute the local
		// minimum next-event time.
		locMin := sim.MaxTime
		n3 := int64(len(g.lps))
		var recvd, depth uint64
		for {
			i := g.cursor3.Add(1) - 1
			if i >= n3 {
				break
			}
			lpIdx := g.lps[i]
			k := e.receive(lpIdx, &recv)
			fel := e.lps[lpIdx].fel
			locMin = min(locMin, fel.NextTime())
			if probe != nil {
				recvd += uint64(k)
				depth += uint64(fel.Len())
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
				Recvs: recvd, FELDepth: depth, Migrations: migrations,
			}
			probe.OnRound(&rec)
		}
		if e.done {
			return
		}
	}
}
