package pdes

import (
	"errors"
	"fmt"
	"time"

	"unison/internal/ckpt"
	"unison/internal/core"
	"unison/internal/eventq"
	"unison/internal/metrics"
	"unison/internal/obs"
	"unison/internal/sim"
)

// NullMessageKernel is the Chandy–Misra–Bryant conservative algorithm:
// ranks synchronize pairwise through their channels instead of global
// barriers. Every message carries a lower bound ("no future message from
// me will arrive before T"); a rank may safely process events earlier
// than the minimum bound over its input channels (its EIT), and it sends
// eager null messages to propagate progress.
//
// Faithful to the algorithms the paper compares (§2.3), this kernel
// supports only the stop event among global events: distributed ranks
// have no coordination point at which to run arbitrary global events.
// Models using dynamic topologies must use Unison.
//
// This file is the rank step both executors run: the live one
// (nullmsg_live.go) and the virtual testbed's (nullmsg_virtual.go).
type NullMessageKernel struct {
	// Part is the static rank assignment and its lookahead
	// (core.Manual, or a recipe from partition.go).
	Part *core.Partition
	// CacheWays enables the cache-locality model when positive.
	CacheWays int
	// Observe, when non-nil, receives one obs.RoundRecord per rank per
	// null-message iteration (Round counts iterations per rank; there is
	// no global round structure) plus run begin/end notifications.
	Observe obs.Probe
}

// Name implements sim.Kernel.
func (k *NullMessageKernel) Name() string { return "nullmsg" }

// VirtualCost is what the virtual executor charges, in virtual
// nanoseconds: EventNS per event plus MissNS per miss of the
// CacheWays-way cache-locality model, MsgNS per drained message and per
// sent event message, and NullNS per null message.
type VirtualCost struct {
	EventNS, MissNS int64
	CacheWays       int
	MsgNS, NullNS   int64
}

// Run implements sim.Kernel: it executes m under the live executor.
func (k *NullMessageKernel) Run(m *sim.Model) (*sim.RunStats, error) {
	return k.run(m, k.Name(), nil)
}

// RunVirtual executes m under the virtual executor, charging c, and
// labels the run name. It takes no checkpoints.
func (k *NullMessageKernel) RunVirtual(m *sim.Model, name string, c VirtualCost) (*sim.RunStats, error) {
	return k.run(m, name, &c)
}

// nmMsg is one channel message: a batch of remote events plus the
// sender's promise bound.
type nmMsg struct {
	from    int32
	bound   sim.Time
	events  []sim.Event
	vArrive int64 // virtual arrival time (virtual executor)
}

// nmRank is one rank, and the sink of the events it creates.
type nmRank struct {
	id     int32
	lpOf   []int32
	fel    *eventq.Queue
	ctx    *sim.Ctx
	inbox  nmInbox
	inFrom []int32 // ranks with channels into this rank
	outTo  []int32 // ranks this rank sends to, ascending
	// Per peer rank: output channel lookahead (-1 = no channel), input
	// channel bound, last promise sent, and staged events.
	outLA   []sim.Time
	clock   []sim.Time
	promise []sim.Time
	outBuf  [][]sim.Event

	done    bool
	events  uint64
	lastT   sim.Time
	p, s, m int64
	nulls   uint64
	iter    uint64          // probe iteration counter
	rec     obs.RoundRecord // escapes through the probe; allocated per run

	seen   uint64            // live: the inbox seq last drained
	sw     metrics.Stopwatch // live: phase timing
	v      int64             // virtual: the rank's CPU clock
	parked bool              // virtual: waiting for any message
}

func (r *nmRank) Put(ev sim.Event) {
	if tgt := r.lpOf[ev.Node]; tgt != r.id {
		r.outBuf[tgt] = append(r.outBuf[tgt], ev)
	} else {
		r.fel.Push(ev)
	}
}

func (r *nmRank) PutGlobal(sim.Event) {
	panic("pdes: the null message kernel does not support global events")
}

// nmRun is the shared state of one run.
type nmRun struct {
	k     *NullMessageKernel
	m     *sim.Model
	ranks []*nmRank
	seqs  sim.SeqTable
	cache *metrics.CacheModel
	// virtual selects the virtual executor; cost is zero live.
	virtual bool
	cost    VirtualCost
	// stopAt ends the current segment: StopAt, or a checkpoint epoch.
	stopAt sim.Time

	// The checkpoint epoch, and the restored-from offsets so a resumed
	// run's RunStats match an uninterrupted one.
	epoch      uint64
	baseEvents uint64
	baseEnd    sim.Time
}

func (k *NullMessageKernel) run(m *sim.Model, name string, vc *VirtualCost) (*sim.RunStats, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("pdes: %w", err)
	}
	if m.StopAt <= 0 {
		return nil, errors.New("pdes: NullMessageKernel requires Model.StopAt (no distributed termination detection)")
	}
	if k.Part == nil || len(k.Part.LPOf) != m.Nodes {
		return nil, errors.New("pdes: NullMessageKernel requires a manual partition covering every node")
	}
	start := time.Now() //unison:wallclock-ok wall-clock run timing for RunStats.WallNS
	x, err := newNMRun(m, k, vc)
	if err != nil {
		return nil, err
	}
	obs.Begin(k.Observe, obs.RunMeta{Kernel: name, Workers: len(x.ranks), LPs: len(x.ranks)})
	if x.virtual {
		err = x.runVirtual()
	} else {
		err = x.runLive()
	}
	if err != nil {
		return nil, err
	}
	st := x.stats(name, start)
	obs.End(k.Observe, st)
	return st, nil
}

// newNMRun builds the ranks and their channels and loads the initial (or
// restored) events.
func newNMRun(m *sim.Model, k *NullMessageKernel, vc *VirtualCost) (*nmRun, error) {
	part := k.Part
	n := part.Count
	x := &nmRun{k: k, m: m, ranks: make([]*nmRank, n), seqs: sim.NewSeqTable(m.Nodes), stopAt: m.StopAt}
	ways := k.CacheWays
	if vc != nil {
		x.virtual, x.cost, ways = true, *vc, vc.CacheWays
	}
	if ways > 0 {
		x.cache = metrics.NewCacheModel(n, ways)
	}
	for i := range x.ranks {
		r := &nmRank{
			id:      int32(i),
			lpOf:    part.LPOf,
			fel:     eventq.New(64),
			outLA:   make([]sim.Time, n),
			clock:   make([]sim.Time, n),
			promise: make([]sim.Time, n),
			outBuf:  make([][]sim.Event, n),
		}
		for j := range r.outLA {
			r.outLA[j] = -1
		}
		r.ctx = sim.NewCtx(r, i)
		r.inbox.cond.L = &r.inbox.mu
		x.ranks[i] = r
	}
	// Channel lookahead: the minimum delay over the up links between
	// two ranks.
	links := m.Links()
	for i := range links {
		l := &links[i]
		ra, rb := part.LPOf[l.A], part.LPOf[l.B]
		if ra == rb || !l.Up {
			continue
		}
		for _, c := range [2][2]int32{{ra, rb}, {rb, ra}} {
			if la := &x.ranks[c[0]].outLA[c[1]]; *la < 0 || l.Delay < *la {
				*la = l.Delay
			}
		}
	}
	// Channels in rank order fix the null-message send order.
	for _, r := range x.ranks {
		for to, la := range r.outLA {
			if la >= 0 {
				r.outTo = append(r.outTo, int32(to))
				x.ranks[to].inFrom = append(x.ranks[to].inFrom, r.id)
			}
		}
	}

	queue := m.Init
	if hook := m.Ckpt; hook != nil && hook.Restore != nil {
		ks := hook.Restore
		if len(ks.Seqs) != len(x.seqs) {
			return nil, fmt.Errorf("pdes: checkpoint has %d sequence counters, model needs %d", len(ks.Seqs), len(x.seqs))
		}
		copy(x.seqs, ks.Seqs)
		queue = ks.Queue
		x.epoch, x.baseEvents, x.baseEnd = ks.Round, ks.Events, ks.EndTime
	}
	for _, ev := range queue {
		if ev.Node == sim.GlobalNode {
			if ev.Time == m.StopAt {
				continue // the stop event is duplicated as StopAt per rank
			}
			return nil, errors.New("pdes: null message kernel cannot run models with global events (use Unison)")
		}
		x.ranks[part.LPOf[ev.Node]].fel.Push(ev)
	}
	return x, nil
}

// lap returns the duration of the phase just ended: the stopwatch lap
// live; virtually, the modeled charge, which advances r's clock.
func (x *nmRun) lap(r *nmRank, modeled int64) int64 {
	if x.virtual {
		r.v += modeled
		return modeled
	}
	return r.sw.Lap()
}

// step is one iteration of rank r, shared by both executors: drain the
// deliverable messages msgs, run the safe prefix, flush events and eager
// null messages, test for termination and report the iteration. It
// returns whether the rank progressed: drained or sent a message, ran an
// event, or terminated. A live rank that did not has waited for its
// inbox to change before the iteration is reported.
func (x *nmRun) step(r *nmRank, msgs []nmMsg) bool {
	var recvd uint64
	for _, msg := range msgs {
		r.fel.PushBatch(msg.events)
		recvd += uint64(len(msg.events))
		r.clock[msg.from] = max(r.clock[msg.from], msg.bound)
	}
	m1 := x.lap(r, int64(len(msgs))*x.cost.MsgNS)

	// EIT: the earliest a future remote event could arrive.
	eit := sim.MaxTime
	for _, from := range r.inFrom {
		eit = min(eit, r.clock[from])
	}
	safe := min(eit, x.stopAt)

	// Process the safe prefix.
	evStart := r.events
	cache := x.cache
	var cost int64
	for {
		ev, ok := r.fel.PopBefore(safe)
		if !ok {
			break
		}
		if cache != nil {
			cost += x.cost.EventNS
			if cache.Touch(int(r.id), ev.Node) {
				cost += x.cost.MissNS
			}
		}
		r.ctx.Begin(&ev, x.seqs.Of(ev.Node))
		ev.Fn(r.ctx)
		r.events++
		r.lastT = ev.Time
	}
	pNS := x.lap(r, cost)

	// Flush remote events and eager null messages. The promise is
	// sound: any later output of this rank is caused by an event at
	// or after min(N_own, EIT), plus the channel lookahead.
	base := min(r.fel.NextTime(), eit)
	var sent uint64
	var sendNS int64
	posted := false
	for _, to := range r.outTo {
		bound := satAdd(base, r.outLA[to])
		evs := r.outBuf[to]
		if len(evs) == 0 && bound <= r.promise[to] {
			continue
		}
		msg := nmMsg{from: r.id, bound: bound, vArrive: r.v + sendNS + x.cost.MsgNS}
		c := x.cost.NullNS
		if len(evs) > 0 {
			msg.events = append([]sim.Event(nil), evs...)
			sent += uint64(len(evs))
			r.outBuf[to] = evs[:0]
			c = x.cost.MsgNS
		} else {
			r.nulls++
		}
		sendNS += c
		r.promise[to] = bound
		if x.virtual {
			x.ranks[to].deliver(msg)
		} else {
			x.ranks[to].inbox.post(msg)
		}
		posted = true
	}
	m2 := x.lap(r, sendNS)

	// Terminate once nothing before stopAt can happen here anymore.
	r.done = r.fel.NextTime() >= x.stopAt && eit >= x.stopAt
	progressed := r.done || posted || len(msgs) > 0 || r.events > evStart
	var sNS int64
	if !progressed && !x.virtual {
		// Blocked: wait for a neighbor to extend a promise. (The virtual
		// executor's scheduler waits for the rank instead.)
		r.inbox.waitChange(r.seen)
		sNS = r.sw.Lap()
	}
	r.p += pNS
	r.s += sNS
	r.m += m1 + m2
	if probe := x.k.Observe; probe != nil {
		r.rec = obs.RoundRecord{
			Round: r.iter, Worker: r.id, LBTS: safe,
			Events: r.events - evStart,
			ProcNS: pNS, SyncNS: sNS, MsgNS: m1 + m2,
			Sends: sent, SendBytes: sent * obs.EventBytes,
			Recvs: recvd, FELDepth: uint64(r.fel.Len()),
		}
		probe.OnRound(&r.rec)
		r.iter++
	}
	return progressed
}

// saveCkpt snapshots the quiesced ranks through the model's checkpoint
// hook: their FELs, and the events of messages posted after the receiver
// ended the segment (bounded at or after it; the next segment drains
// them). The per-rank clocks and promises are deliberately NOT
// serialized: they are lower bounds, so a restored run restarting them
// at zero merely re-warms the channels with a few extra null messages —
// the event trajectory is unchanged (RunStats.Rounds, the null-message
// count, is the one scheduling-dependent statistic).
func (x *nmRun) saveCkpt() error {
	var queue []sim.Event
	for _, r := range x.ranks {
		queue = r.fel.Snapshot(queue)
		for _, msg := range r.inbox.msgs {
			queue = append(queue, msg.events...)
		}
	}
	for _, ev := range x.m.Init {
		if ev.Node == sim.GlobalNode && ev.Time == x.m.StopAt {
			// Keep the snapshot portable: kernels that schedule the stop
			// globally need it back in the queue; this kernel skips it on
			// restore just as it does at setup.
			queue = append(queue, ev)
		}
	}
	if err := ckpt.CheckQueue(queue); err != nil {
		return fmt.Errorf("pdes: %w", err)
	}
	ks := &sim.KernelState{
		Round: x.epoch,
		Now:   x.stopAt,
		Seqs:  append([]uint64(nil), x.seqs...),
		Queue: queue,
	}
	ks.Events, ks.EndTime = x.totals()
	if err := x.m.Ckpt.Save(ks); err != nil {
		return fmt.Errorf("pdes: checkpoint: %w", err)
	}
	return nil
}

// totals returns the events executed and the latest event time, counting
// the restored-from offsets.
func (x *nmRun) totals() (events uint64, end sim.Time) {
	events, end = x.baseEvents, x.baseEnd
	for _, r := range x.ranks {
		events += r.events
		end = max(end, r.lastT)
	}
	return events, end
}

func (x *nmRun) stats(name string, start time.Time) *sim.RunStats {
	st := &sim.RunStats{
		Kernel:  name,
		WallNS:  time.Since(start).Nanoseconds(), //unison:wallclock-ok wall-clock run timing for RunStats.WallNS
		LPs:     len(x.ranks),
		Workers: make([]sim.WorkerStats, len(x.ranks)),
	}
	st.Events, st.EndTime = x.totals()
	for i, r := range x.ranks {
		st.Workers[i] = sim.WorkerStats{P: r.p, S: r.s, M: r.m, Events: r.events}
		st.Rounds += r.nulls // for null-message, "rounds" reports null messages sent
		st.VirtualT = max(st.VirtualT, r.v)
	}
	// Ranks that finished early waited (virtually) for the slowest one.
	// Live, every virtual clock stays at zero.
	for i, r := range x.ranks {
		st.Workers[i].S += st.VirtualT - r.v
	}
	if x.cache != nil {
		st.CacheRefs, st.CacheMisses = x.cache.Counters()
	}
	return st
}

// satAdd is a+b for non-negative times, saturating at sim.MaxTime.
func satAdd(a, b sim.Time) sim.Time {
	if c := a + b; c >= a {
		return c
	}
	return sim.MaxTime
}
