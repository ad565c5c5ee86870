package pdes

import (
	"errors"
	"fmt"
	"sort"
	"sync"
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

// nmMsg is one channel message: a batch of remote events plus the
// sender's promise bound.
type nmMsg struct {
	from   int32
	bound  sim.Time
	events []sim.Event
}

// nmInbox is a rank's input channel multiplexer.
type nmInbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	msgs []nmMsg
	seq  uint64
}

func (in *nmInbox) post(m nmMsg) {
	in.mu.Lock()
	in.msgs = append(in.msgs, m)
	in.seq++
	in.cond.Signal()
	in.mu.Unlock()
}

func (in *nmInbox) take(buf []nmMsg) ([]nmMsg, uint64) {
	in.mu.Lock()
	buf = append(buf[:0], in.msgs...)
	in.msgs = in.msgs[:0]
	seq := in.seq
	in.mu.Unlock()
	return buf, seq
}

// waitChange blocks until the inbox seq advances past seen.
func (in *nmInbox) waitChange(seen uint64) {
	in.mu.Lock()
	for in.seq == seen {
		in.cond.Wait()
	}
	in.mu.Unlock()
}

type nmRank struct {
	id      int32
	fel     *eventq.Queue
	inbox   nmInbox
	inFrom  []int32            // ranks with channels into this rank
	outTo   []int32            // ranks this rank sends to
	outLA   map[int32]sim.Time // per-channel lookahead
	clock   map[int32]sim.Time // input channel bounds
	promise map[int32]sim.Time // last promise sent per output channel
	outBuf  map[int32][]sim.Event

	events  uint64
	lastT   sim.Time
	p, s, m int64
	nulls   uint64
}

type nmSink struct {
	r     *nmRank
	lpOf  []int32
	setup bool
}

func (s *nmSink) Put(ev sim.Event) {
	tgt := s.lpOf[ev.Node]
	if tgt == s.r.id {
		s.r.fel.Push(ev)
		return
	}
	s.r.outBuf[tgt] = append(s.r.outBuf[tgt], ev)
}

func (s *nmSink) PutGlobal(sim.Event) {
	panic("pdes: the null message kernel does not support global events")
}

// Run implements sim.Kernel.
func (k *NullMessageKernel) Run(m *sim.Model) (*sim.RunStats, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("pdes: %w", err)
	}
	if m.StopAt <= 0 {
		return nil, errors.New("pdes: NullMessageKernel requires Model.StopAt (no distributed termination detection)")
	}
	start := time.Now() //unison:wallclock-ok wall-clock run timing for RunStats.WallNS
	links := m.Links()
	part := k.Part
	if part == nil || len(part.LPOf) != m.Nodes {
		return nil, errors.New("pdes: NullMessageKernel requires a manual partition covering every node")
	}
	n := part.Count

	// Channel lookaheads: min delay per directed rank pair.
	type pair struct{ a, b int32 }
	chanLA := map[pair]sim.Time{}
	for i := range links {
		l := &links[i]
		ra, rb := part.LPOf[l.A], part.LPOf[l.B]
		if ra == rb || !l.Up {
			continue
		}
		for _, p := range []pair{{ra, rb}, {rb, ra}} {
			if la, ok := chanLA[p]; !ok || l.Delay < la {
				chanLA[p] = l.Delay
			}
		}
	}

	ranks := make([]*nmRank, n)
	for i := range ranks {
		ranks[i] = &nmRank{
			id:      int32(i),
			fel:     eventq.New(64),
			outLA:   map[int32]sim.Time{},
			clock:   map[int32]sim.Time{},
			promise: map[int32]sim.Time{},
			outBuf:  map[int32][]sim.Event{},
		}
		ranks[i].inbox.cond = sync.NewCond(&ranks[i].inbox.mu)
	}
	// Deterministic channel setup order: ranging chanLA directly would
	// let Go's randomized map order decide each rank's outTo/inFrom
	// sequence — and with it the null-message send order — varying run
	// to run. (unisoncheck:maporder caught this; the vtime sibling
	// kernel already sorted.)
	pairs := make([]pair, 0, len(chanLA))
	for p := range chanLA {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].a != pairs[j].a {
			return pairs[i].a < pairs[j].a
		}
		return pairs[i].b < pairs[j].b
	})
	for _, p := range pairs {
		la := chanLA[p]
		ranks[p.a].outTo = append(ranks[p.a].outTo, p.b)
		ranks[p.a].outLA[p.b] = la
		ranks[p.b].inFrom = append(ranks[p.b].inFrom, p.a)
		ranks[p.b].clock[p.a] = 0
	}

	var cache *metrics.CacheModel
	if k.CacheWays > 0 {
		cache = metrics.NewCacheModel(n, k.CacheWays)
	}
	seqs := sim.NewSeqTable(m.Nodes)
	hook := m.Ckpt
	var baseEvents uint64
	var baseEnd sim.Time
	var epoch uint64
	if hook != nil && hook.Restore != nil {
		ks := hook.Restore
		if len(ks.Seqs) != len(seqs) {
			return nil, fmt.Errorf("pdes: checkpoint has %d sequence counters, model needs %d", len(ks.Seqs), len(seqs))
		}
		copy(seqs, ks.Seqs)
		for _, ev := range ks.Queue {
			if ev.Node == sim.GlobalNode {
				if ev.Time == m.StopAt {
					continue // the stop event is duplicated as StopAt per rank
				}
				return nil, errors.New("pdes: null message kernel cannot restore models with global events (use Unison)")
			}
			ranks[part.LPOf[ev.Node]].fel.Push(ev)
		}
		epoch, baseEvents, baseEnd = ks.Round, ks.Events, ks.EndTime
	} else {
		for _, ev := range m.Init {
			if ev.Node == sim.GlobalNode {
				if ev.Time == m.StopAt {
					continue // the stop event is duplicated as StopAt per rank
				}
				return nil, errors.New("pdes: null message kernel cannot run models with global events (use Unison)")
			}
			ranks[part.LPOf[ev.Node]].fel.Push(ev)
		}
	}
	ckptEvery := sim.Time(0)
	if hook != nil && hook.Save != nil && hook.EveryTime > 0 {
		ckptEvery = hook.EveryTime
	}

	obs.Begin(k.Observe, obs.RunMeta{Kernel: k.Name(), Workers: n, LPs: n})
	// The null-message kernel has no global rounds, so checkpoints use
	// simulated-time epochs (CkptHook.EveryTime): the run is split into
	// segments ending at epoch multiples, every rank quiesces at the
	// segment boundary exactly as it would at StopAt, and the boundary is
	// a sound snapshot point — a rank only terminates a segment once its
	// EIT reaches the boundary, so channel promises guarantee every
	// undelivered message holds only events at or after it.
	for {
		segEnd := m.StopAt
		if ckptEvery > 0 {
			if next := sim.Time(epoch+1) * ckptEvery; next < segEnd {
				segEnd = next
			}
		}
		var wg sync.WaitGroup
		for _, r := range ranks {
			wg.Add(1)
			go func(r *nmRank) {
				defer wg.Done()
				k.rankLoop(r, ranks, part.LPOf, seqs, segEnd, cache)
			}(r)
		}
		wg.Wait()
		if segEnd >= m.StopAt {
			break
		}
		epoch++
		// Serial quiesce: deliver messages posted after their receiver
		// terminated the segment (all bounded at or after segEnd).
		var buf []nmMsg
		for _, r := range ranks {
			buf, _ = r.inbox.take(buf)
			for _, msg := range buf {
				r.fel.PushBatch(msg.events)
				if msg.bound > r.clock[msg.from] {
					r.clock[msg.from] = msg.bound
				}
			}
		}
		if err := k.saveCkpt(m, ranks, seqs, epoch, segEnd, baseEvents, baseEnd); err != nil {
			return nil, err
		}
	}

	st := &sim.RunStats{
		Kernel:  "nullmsg",
		WallNS:  time.Since(start).Nanoseconds(), //unison:wallclock-ok wall-clock run timing for RunStats.WallNS
		LPs:     n,
		Workers: make([]sim.WorkerStats, n),
	}
	st.Events = baseEvents
	st.EndTime = baseEnd
	var nulls uint64
	for i, r := range ranks {
		st.Events += r.events
		if r.lastT > st.EndTime {
			st.EndTime = r.lastT
		}
		st.Workers[i] = sim.WorkerStats{P: r.p, S: r.s, M: r.m, Events: r.events}
		nulls += r.nulls
	}
	st.Rounds = nulls // for null-message, "rounds" reports null messages sent
	if cache != nil {
		st.CacheRefs, st.CacheMisses = cache.Counters()
	}
	obs.End(k.Observe, st)
	return st, nil
}

// saveCkpt snapshots the quiesced rank FELs through the model's
// checkpoint hook. The per-rank clocks and promises are deliberately NOT
// serialized: they are lower bounds, so a restored run restarting them
// at zero merely re-warms the channels with a few extra null messages —
// the event trajectory is unchanged (RunStats.Rounds, the null-message
// count, is the one scheduling-dependent statistic).
func (k *NullMessageKernel) saveCkpt(m *sim.Model, ranks []*nmRank, seqs sim.SeqTable, epoch uint64, now sim.Time, baseEvents uint64, baseEnd sim.Time) error {
	var queue []sim.Event
	for _, r := range ranks {
		queue = r.fel.Snapshot(queue)
	}
	for _, ev := range m.Init {
		if ev.Node == sim.GlobalNode && ev.Time == m.StopAt {
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
		Round:   epoch,
		Now:     now,
		Events:  baseEvents,
		EndTime: baseEnd,
		Seqs:    append([]uint64(nil), seqs...),
		Queue:   queue,
	}
	for _, r := range ranks {
		ks.Events += r.events
		if r.lastT > ks.EndTime {
			ks.EndTime = r.lastT
		}
	}
	if err := m.Ckpt.Save(ks); err != nil {
		return fmt.Errorf("pdes: checkpoint: %w", err)
	}
	return nil
}

func (k *NullMessageKernel) rankLoop(r *nmRank, ranks []*nmRank, lpOf []int32, seqs sim.SeqTable, stopAt sim.Time, cache *metrics.CacheModel) {
	sink := &nmSink{r: r, lpOf: lpOf}
	ctx := sim.NewCtx(sink, int(r.id))
	probe := k.Observe
	var iter uint64
	// rec escapes through the probe interface call; hoisted so the
	// allocation is per run, not per round (probes copy the pointee).
	var rec obs.RoundRecord
	var sw metrics.Stopwatch
	sw.Start()
	var buf []nmMsg
	var seenSeq uint64

	for {
		// Drain the inbox: merge remote events, advance channel clocks.
		var recvd uint64
		buf, seenSeq = r.inbox.take(buf)
		for _, msg := range buf {
			r.fel.PushBatch(msg.events)
			recvd += uint64(len(msg.events))
			if msg.bound > r.clock[msg.from] {
				r.clock[msg.from] = msg.bound
			}
		}
		m1 := sw.Lap()
		r.m += m1

		// EIT: the earliest a future remote event could arrive.
		eit := sim.MaxTime
		for _, from := range r.inFrom {
			if c := r.clock[from]; c < eit {
				eit = c
			}
		}
		safe := eit
		if stopAt < safe {
			safe = stopAt
		}

		// Process the safe prefix.
		evStart := r.events
		progressed := false
		for {
			ev, ok := r.fel.PopBefore(safe)
			if !ok {
				break
			}
			if cache != nil {
				cache.Touch(int(r.id), ev.Node)
			}
			ctx.Begin(&ev, seqs.Of(ev.Node))
			ev.Fn(ctx)
			r.events++
			r.lastT = ev.Time
			progressed = true
		}
		pNS := sw.Lap()
		r.p += pNS

		// Flush remote events and eager null messages. The promise is
		// sound: any later output of this rank is caused by an event at
		// or after min(N_own, EIT), plus the channel lookahead.
		base := r.fel.NextTime()
		if eit < base {
			base = eit
		}
		var sent uint64
		for _, to := range r.outTo {
			bound := satAdd(base, r.outLA[to])
			evs := r.outBuf[to]
			if len(evs) == 0 && bound <= r.promise[to] {
				continue
			}
			msg := nmMsg{from: r.id, bound: bound}
			if len(evs) > 0 {
				msg.events = append([]sim.Event(nil), evs...)
				sent += uint64(len(evs))
				r.outBuf[to] = evs[:0]
			} else {
				r.nulls++
			}
			r.promise[to] = bound
			ranks[to].inbox.post(msg)
		}
		m2 := sw.Lap()
		r.m += m2

		// Terminate once nothing before stopAt can happen here anymore.
		terminal := r.fel.NextTime() >= stopAt && eit >= stopAt
		var sNS int64
		if !terminal && !progressed {
			// Blocked: wait for a neighbor to extend a promise.
			r.inbox.waitChange(seenSeq)
			sNS = sw.Lap()
			r.s += sNS
		}
		if probe != nil {
			rec = obs.RoundRecord{
				Round: iter, Worker: r.id, LBTS: safe,
				Events: r.events - evStart,
				ProcNS: pNS, SyncNS: sNS, MsgNS: m1 + m2,
				Sends: sent, SendBytes: sent * obs.EventBytes,
				Recvs: recvd, FELDepth: uint64(r.fel.Len()),
			}
			probe.OnRound(&rec)
			iter++
		}
		if terminal {
			return
		}
	}
}

func satAdd(a, b sim.Time) sim.Time {
	if a == sim.MaxTime || b == sim.MaxTime {
		return sim.MaxTime
	}
	c := a + b
	if c < a {
		return sim.MaxTime
	}
	return c
}
