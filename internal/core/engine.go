package core

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync/atomic"
	"time"

	"unison/internal/ckpt"
	"unison/internal/eventq"
	"unison/internal/metrics"
	"unison/internal/obs"
	"unison/internal/sim"
)

// This file is the round engine every round kernel runs: Unison (§5.1),
// the hybrid kernel (§5.2), the barrier baseline (§2.3) and the virtual
// testbed's twins of all three. A round has four phases:
//
//  1. process — each worker pulls LPs of its group's active list (the
//     LPs with an event before LBTS) and executes their events inside
//     the window [.., LBTS);
//  2. globals — with every worker parked, the public LP's events at
//     exactly LBTS run;
//  3. receive — each worker pulls LPs of its group's received list (the
//     LPs some outbox staged events for) and bulk-loads the cross-LP
//     events staged for them in phase 1;
//  4. advance — with every worker parked, the next window is computed by
//     Equation 2, a checkpoint is taken when due, and the LP order is
//     rescheduled every period rounds.
//
// The engine keeps every LP's next-event time in one flat slice, so an LP
// with nothing to do in a round is never claimed, popped or gathered: the
// fine-grained partition (§4.1) costs per round what its busy LPs cost.
//
// What differs between kernels is plain data, the Policy: the partition
// and the worker group owning each LP. What differs between live and
// virtual runs is the executor: live.go runs the phases on goroutines
// with real clocks, virtual.go on one goroutine with modeled clocks.

// Policy describes one round kernel to the round engine.
type Policy struct {
	// Name labels RunStats and probe metadata.
	Name string
	// Part is the spatial partition.
	Part *Partition
	// GroupOf[lp] is the worker group that owns LP lp, and Workers[g] is
	// group g's worker count. Groups number their workers consecutively
	// (group 0 owns workers 0..Workers[0]-1, and so on), and a worker
	// only ever processes and receives for its own group's LPs.
	GroupOf []int32
	Workers []int
	// Metric and Period configure the load-adaptive scheduler (§4.3),
	// which reorders each group's LPs every Period rounds (0 = ⌈log₂ n⌉).
	Metric Metric
	Period int
	// CacheWays enables the cache-locality model when positive.
	CacheWays int
	// RecordRounds captures a per-round trace.
	RecordRounds bool
	// MaxRounds aborts runaway simulations when positive.
	MaxRounds uint64
	// Observe, when non-nil, receives per-round per-worker telemetry.
	Observe obs.Probe
}

// BarrierPolicy gives every LP of part its own group of one worker: the
// barrier algorithm's static rank-per-core execution, with no scheduling.
func BarrierPolicy(part *Partition) Policy {
	p := Policy{Part: part, GroupOf: make([]int32, part.Count), Workers: make([]int, part.Count), Metric: MetricNone}
	for lp := range p.GroupOf {
		p.GroupOf[lp] = int32(lp)
		p.Workers[lp] = 1
	}
	return p
}

// Run executes m under the live executor.
func (p *Policy) Run(m *sim.Model) (*sim.RunStats, error) { return run(m, p, nil) }

// RunVirtual executes m under the virtual executor, charging c.
func (p *Policy) RunVirtual(m *sim.Model, c VirtualCost) (*sim.RunStats, error) {
	return run(m, p, &c)
}

// lpState is one logical process. Cross-LP events in flight live in the
// per-worker staged outboxes (mailbox.go), not on the LP.
type lpState struct {
	fel *eventq.Queue
	// est is the scheduling estimate; lastP the measured (or modeled)
	// processing cost of the last round the LP ran; pending the events it
	// received the last round it received any. The scheduler reads lastP
	// and pending only for LPs on the last round's lists, so a value left
	// from an earlier round never reaches an estimate.
	est     int64
	lastP   int64
	pending int64
	// depth is the FEL's length when the LP last settled.
	depth int64
	// lastW is 1 + the worker that ran this LP last round (0 = never);
	// only maintained when a probe is attached, to count migrations.
	lastW int32
}

// migrated records that worker w ran the LP this round and reports
// whether a different worker ran it the round before.
func (lp *lpState) migrated(w int) bool {
	moved := lp.lastW != 0 && lp.lastW != int32(w)+1
	lp.lastW = int32(w) + 1
	return moved
}

// group is one worker group: the LPs it owns and the two pull cursors
// its workers share. Groups never pull each other's LPs, so a group of
// one worker and one LP runs pinned, like a barrier rank.
type group struct {
	lps   []int32 // ascending LP index
	order []int32 // process order: longest estimated job first
	w0    int     // first worker
	nw    int     // worker count
	// depth is the number of events pending in the group's FELs after the
	// last round; the live executor keeps it when a probe is attached.
	depth int64
	// cursor1 and cursor3 index the group's active list in phase 1 and
	// its received list in phase 3. They are reset in the serial phases
	// and padded onto their own cache line.
	_       [64]byte
	cursor1 atomic.Int64
	cursor3 atomic.Int64
	_       [48]byte
}

// depthShare is worker w's even share of the group's pending events; the
// shares of a group's workers sum to its depth.
func (g *group) depthShare(w int) uint64 {
	d, nw := uint64(g.depth), uint64(g.nw)
	share := d / nw
	if uint64(w-g.w0) < d%nw {
		share++
	}
	return share
}

type workerState struct {
	events  uint64
	lastT   sim.Time
	p, s, m int64
	// depth is the change in FEL length this worker settled since the
	// last fold into its group.
	depth int64
	// act and got are the round's active and received lists of the
	// worker's group (every worker of a group builds the same lists; the
	// virtual executor builds them on the group's first worker only). ran
	// holds the LPs this worker processed in phase 1.
	act, got, ran []int32
	_             [8]int64 // avoid false sharing between workers' hot counters
}

// engine is the shared state of one run.
type engine struct {
	pol  *Policy
	m    *sim.Model
	part *Partition
	lps  []lpState
	pub  *eventq.Queue
	seqs sim.SeqTable

	groups  []group
	groupOf []int32 // worker -> group

	// outboxes stage the current round's cross-LP events: one per worker
	// live, where the phase barriers order writes before the phase-3 reads
	// (mailbox.go), and one shared by every worker virtual.
	outboxes []outbox

	lbts      sim.Time
	lookahead sim.Time

	// next[lp] is LP lp's next-event time. It is exact between rounds and
	// written only by the LP's settle, in phases 2 and 3, so phase 1 can
	// read it from every worker.
	next []sim.Time
	// workerMin[w] is the earliest pending event time over the LPs worker
	// w accounts for in the Equation 2 fold (advance), and globMin the
	// earliest over every LP after a phase-2 global event ran.
	workerMin []sim.Time
	globMin   sim.Time

	stopped bool
	done    bool
	err     error

	round  uint64
	period uint64

	// baseEvents/baseEnd are the restored-from-checkpoint offsets, so a
	// resumed run's RunStats match an uninterrupted one.
	baseEvents uint64
	baseEnd    sim.Time

	// cache is the cache-locality model; when set, runLP also charges
	// eventNS per event plus missNS per modeled miss (both zero live).
	cache           *metrics.CacheModel
	eventNS, missNS int64

	trace   []sim.RoundSample
	virtual int64 // modeled run time (virtual executor)

	workers []workerState
}

// workerSink routes events created by one worker.
type workerSink struct {
	e     *engine
	w     int
	ob    *outbox
	curLP int32 // -1 while executing global events (direct insertion)
}

func (s *workerSink) Put(ev sim.Event) {
	tgt := s.e.part.LPOf[ev.Node]
	if s.curLP < 0 || tgt == s.curLP {
		s.e.lps[tgt].fel.Push(ev)
		return
	}
	if ev.Time < s.e.lbts {
		panic(fmt.Sprintf("core: causality violation: cross-LP event at %v inside window ending %v (lookahead too small)", ev.Time, s.e.lbts))
	}
	s.ob.put(tgt, ev)
}

func (s *workerSink) PutGlobal(ev sim.Event) {
	if s.curLP >= 0 {
		panic("core: global events may only be scheduled at setup or from other global events (§4.2)")
	}
	s.e.pub.Push(ev)
}

// run is the engine entry point shared by both executors; vc selects the
// virtual executor when non-nil.
func run(m *sim.Model, pol *Policy, vc *VirtualCost) (*sim.RunStats, error) {
	start := time.Now() //unison:wallclock-ok wall-clock run timing for RunStats.WallNS
	e, err := newEngine(m, pol)
	if err != nil {
		return nil, err
	}
	cacheWays := pol.CacheWays
	if vc != nil {
		cacheWays = vc.CacheWays
		e.eventNS, e.missNS = vc.EventNS, vc.MissNS
	}
	if cacheWays > 0 {
		e.cache = metrics.NewCacheModel(len(e.workers), cacheWays)
	}
	obs.Begin(pol.Observe, obs.RunMeta{Kernel: pol.Name, Workers: len(e.workers), LPs: e.part.Count})
	allMin := e.allMin()
	e.lbts = eq2(allMin, e.pub.NextTime(), e.lookahead)
	if allMin != sim.MaxTime || !e.pub.Empty() {
		if vc != nil {
			e.runVirtual(vc)
		} else {
			e.runLive()
		}
	}
	st := e.stats(start)
	if vc != nil {
		st.VirtualT = e.virtual
	}
	obs.End(pol.Observe, st)
	return st, e.err
}

// newEngine builds the run state and loads the initial (or restored)
// events.
func newEngine(m *sim.Model, pol *Policy) (*engine, error) {
	part := pol.Part
	n := part.Count
	e := &engine{
		pol:       pol,
		m:         m,
		part:      part,
		lps:       make([]lpState, n),
		pub:       eventq.New(16),
		seqs:      sim.NewSeqTable(m.Nodes),
		lookahead: part.Lookahead,
		groups:    make([]group, len(pol.Workers)),
		next:      make([]sim.Time, n),
		globMin:   sim.MaxTime,
	}
	for i := range e.lps {
		e.lps[i].fel = eventq.New(64)
		g := &e.groups[pol.GroupOf[i]]
		g.lps = append(g.lps, int32(i))
	}
	for gi := range e.groups {
		g := &e.groups[gi]
		g.order = append([]int32(nil), g.lps...)
		g.w0, g.nw = len(e.groupOf), pol.Workers[gi]
		for w := 0; w < g.nw; w++ {
			e.groupOf = append(e.groupOf, int32(gi))
		}
	}
	workers := len(e.groupOf)
	e.workers = make([]workerState, workers)
	e.workerMin = make([]sim.Time, workers)
	e.period = uint64(pol.Period)
	if e.period == 0 {
		e.period = 1
		if n > 1 {
			e.period = uint64(bits.Len(uint(n - 1))) // ⌈log₂ n⌉
		}
	}
	queue := m.Init
	if hook := m.Ckpt; hook != nil && hook.Restore != nil {
		ks := hook.Restore
		if len(ks.Seqs) != len(e.seqs) {
			return nil, fmt.Errorf("core: checkpoint has %d sequence counters, model needs %d", len(ks.Seqs), len(e.seqs))
		}
		copy(e.seqs, ks.Seqs)
		queue = ks.Queue
		e.round, e.baseEvents, e.baseEnd = ks.Round, ks.Events, ks.EndTime
	}
	for _, ev := range queue {
		if ev.Node == sim.GlobalNode {
			e.pub.Push(ev)
		} else {
			e.lps[part.LPOf[ev.Node]].fel.Push(ev)
		}
	}
	for i := range e.lps {
		lp := &e.lps[i]
		e.next[i] = lp.fel.NextTime()
		lp.depth = int64(lp.fel.Len())
		e.groups[pol.GroupOf[i]].depth += lp.depth
	}
	return e, nil
}

// allMin is the earliest pending event time over every LP.
func (e *engine) allMin() sim.Time {
	t := sim.MaxTime
	for _, n := range e.next {
		t = min(t, n)
	}
	return t
}

// activate appends to act the LPs of g, in process order, whose next
// event lies inside the window, and returns the earliest next-event time
// over the others. Every LP on the list runs at least one event in phase
// 1, and no other LP has one to run.
func (e *engine) activate(g *group, act []int32) ([]int32, sim.Time) {
	idle := sim.MaxTime
	for _, lp := range g.order {
		if t := e.next[lp]; t < e.lbts {
			act = append(act, lp)
		} else {
			idle = min(idle, t)
		}
	}
	return act, idle
}

// settle records LP lpIdx's next-event time after its FEL changed in the
// round, credits the change in the FEL's length to ws and returns the
// next-event time.
func (e *engine) settle(lpIdx int32, ws *workerState) sim.Time {
	lp := &e.lps[lpIdx]
	t, n := lp.fel.NextTime(), int64(lp.fel.Len())
	e.next[lpIdx] = t
	ws.depth += n - lp.depth
	lp.depth = n
	return t
}

// Eq2 is the paper's Equation 2 — LBTS = min(N_pub, min_i N_i +
// lookahead) — with saturation at sim.MaxTime. Exported for the
// distributed kernel, which shares the window computation.
func Eq2(allMin, pubNext, lookahead sim.Time) sim.Time { return eq2(allMin, pubNext, lookahead) }

// eq2 is LBTS = min(N_pub, min_i N_i + lookahead) with saturation.
func eq2(allMin, pubNext, lookahead sim.Time) sim.Time {
	window := sim.MaxTime
	if allMin != sim.MaxTime && lookahead != sim.MaxTime {
		window = allMin + lookahead
		if window < allMin { // overflow
			window = sim.MaxTime
		}
	}
	if pubNext < window {
		return pubNext
	}
	return window
}

// runLP is phase 1 for one LP: worker sink.w executes the LP's events
// inside the window. It returns how many ran and their modeled cost.
func (e *engine) runLP(ctx *sim.Ctx, sink *workerSink, lpIdx int32) (nev, cost int64) {
	lp := &e.lps[lpIdx]
	ws := &e.workers[sink.w]
	sink.curLP = lpIdx
	for {
		ev, ok := lp.fel.PopBefore(e.lbts)
		if !ok {
			break
		}
		if e.cache != nil {
			cost += e.eventNS
			if e.cache.Touch(sink.w, ev.Node) {
				cost += e.missNS
			}
		}
		ctx.Begin(&ev, e.seqs.Of(ev.Node))
		ev.Fn(ctx)
		nev++
		if ev.Time > ws.lastT {
			ws.lastT = ev.Time
		}
	}
	ws.events += uint64(nev)
	return nev, cost
}

// globals is phase 2: with every worker parked, the public LP's events
// at exactly the window boundary run on ctx. Their events count on
// worker 0; the modeled cost is returned.
func (e *engine) globals(ctx *sim.Ctx, sink *workerSink) (cost int64) {
	sink.curLP = -1
	ws := &e.workers[0]
	executed := false
	for !e.pub.Empty() && e.pub.Peek().Time == e.lbts {
		ev := e.pub.Pop()
		cost += e.eventNS
		ctx.Begin(&ev, e.seqs.Of(sim.GlobalNode))
		ev.Fn(ctx)
		ws.events++
		if ev.Time > ws.lastT {
			ws.lastT = ev.Time
		}
		executed = true
	}
	if executed {
		// A global event may have mutated the topology: recompute the
		// lookahead from the live link set (§4.2). It may also have
		// inserted into any LP's FEL, so every LP settles.
		e.lookahead = CutLookahead(e.part.LPOf, e.m.Links())
		for gi := range e.groups {
			g := &e.groups[gi]
			for _, lp := range g.lps {
				e.globMin = min(e.globMin, e.settle(lp, &e.workers[g.w0]))
			}
		}
		if ctx.Stopped() {
			e.stopped = true
		}
	}
	return cost
}

// receive is phase 3 for one LP: it gathers the events every worker
// staged for the LP, bulk-loads them into its FEL and returns how many
// arrived. scratch is the caller's reusable gather buffer.
func (e *engine) receive(lpIdx int32, scratch *[]sim.Event) int {
	lp := &e.lps[lpIdx]
	recv := gather(e.outboxes, lpIdx, (*scratch)[:0]) //unison:owner transfer phase-2 barrier published every worker's phase-1 puts
	lp.pending = int64(len(recv))
	lp.fel.PushBatch(recv)
	*scratch = recv
	return len(recv)
}

// advance is phase 4, run with every worker parked: it folds the
// workers' minimum next-event times, decides termination, opens the next
// window by Equation 2, takes a due checkpoint and reschedules.
func (e *engine) advance() {
	allMin := e.globMin
	e.globMin = sim.MaxTime
	for _, t := range e.workerMin {
		allMin = min(allMin, t)
	}
	pubNext := e.pub.NextTime()
	e.round++
	switch {
	case e.stopped:
		e.done = true
	case allMin == sim.MaxTime && pubNext == sim.MaxTime:
		e.done = true
	case e.pol.MaxRounds > 0 && e.round >= e.pol.MaxRounds:
		e.done = true
		e.err = errors.New("core: MaxRounds exceeded")
	default:
		e.lbts = eq2(allMin, pubNext, e.lookahead)
		if hook := e.m.Ckpt; hook.SaveEvery(e.round) {
			// Every worker is parked, every staged event has been
			// delivered, and the new window has not started.
			if err := e.saveCkpt(); err != nil {
				e.err = err
				e.done = true
			}
		}
		if e.rescheduleDue() {
			e.reschedule()
		}
	}
}

// rescheduleDue reports whether the round just finished ends a
// scheduling period (§4.3).
func (e *engine) rescheduleDue() bool {
	return e.pol.Metric != MetricNone && e.round%e.period == 0
}

// reschedule re-sorts each group's LP order by the scheduling estimate:
// the last round's processing cost of the LPs that ran in it
// (MetricPrevTime) or the events received by the LPs that received
// (MetricPendingEvents), and 0 for every other LP.
func (e *engine) reschedule() {
	for i := range e.lps {
		e.lps[i].est = 0
	}
	for gi := range e.groups {
		g := &e.groups[gi]
		ws := &e.workers[g.w0]
		if e.pol.Metric == MetricPrevTime {
			for _, lp := range ws.act {
				e.lps[lp].est = e.lps[lp].lastP
			}
		} else {
			for _, lp := range ws.got {
				e.lps[lp].est = e.lps[lp].pending
			}
		}
		ord := g.order
		sort.SliceStable(ord, func(a, b int) bool {
			return e.lps[ord[a]].est > e.lps[ord[b]].est
		})
	}
}

// saveCkpt snapshots the merged FELs through the model's checkpoint
// hook. Only called from phase 4.
func (e *engine) saveCkpt() error {
	var queue []sim.Event
	for i := range e.lps {
		queue = e.lps[i].fel.Snapshot(queue)
	}
	queue = e.pub.Snapshot(queue)
	if err := ckpt.CheckQueue(queue); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	ks := &sim.KernelState{
		Round: e.round,
		Now:   e.lbts,
		Seqs:  append([]uint64(nil), e.seqs...),
		Queue: queue,
	}
	ks.Events, ks.EndTime = e.totals()
	if err := e.m.Ckpt.Save(ks); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	return nil
}

// totals returns the events executed and the latest event time, counting
// the restored-from offsets.
func (e *engine) totals() (events uint64, end sim.Time) {
	events, end = e.baseEvents, e.baseEnd
	for i := range e.workers {
		events += e.workers[i].events
		end = max(end, e.workers[i].lastT)
	}
	return events, end
}

func (e *engine) stats(start time.Time) *sim.RunStats {
	st := &sim.RunStats{
		Kernel:     e.pol.Name,
		WallNS:     time.Since(start).Nanoseconds(), //unison:wallclock-ok wall-clock run timing for RunStats.WallNS
		Rounds:     e.round,
		LPs:        e.part.Count,
		Workers:    make([]sim.WorkerStats, len(e.workers)),
		RoundTrace: e.trace,
	}
	st.Events, st.EndTime = e.totals()
	for i := range e.workers {
		w := &e.workers[i]
		st.Workers[i] = sim.WorkerStats{P: w.p, S: w.s, M: w.m, Events: w.events}
	}
	if e.cache != nil {
		st.CacheRefs, st.CacheMisses = e.cache.Counters()
	}
	return st
}
