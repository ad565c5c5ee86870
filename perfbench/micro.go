package main

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"unison/internal/app"
	"unison/internal/eventq"
	"unison/internal/packet"
	"unison/internal/sim"
	"unison/internal/syncx"
)

// Each single-layer timing is the median of microBatches batches.
const microBatches = 5

// barrierEpisodeNS times one syncx.Barrier.WaitSerial episode between two
// goroutines, the kernels' per-round synchronization step. ok reports
// that the serial section ran once per episode.
func barrierEpisodeNS() (ns float64, ok bool) {
	const episodes = 20000
	var per []float64
	ok = true
	for b := 0; b < microBatches; b++ {
		bar := syncx.NewBarrier(procs)
		serial := 0
		fn := func() { serial++ }
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < episodes; i++ {
				bar.WaitSerial(fn)
			}
		}()
		start := time.Now()
		for i := 0; i < episodes; i++ {
			bar.WaitSerial(fn)
		}
		el := time.Since(start)
		wg.Wait()
		ok = ok && serial == episodes
		per = append(per, float64(el.Nanoseconds())/episodes)
	}
	return median(per), ok
}

// pushPopNS times one Pop followed by one Push on an eventq.Queue held at
// depth pending events (the hold model: each popped event is rescheduled
// a random interval later). ok reports that events came out in time
// order.
func pushPopNS(depth int, seed uint64) (ns float64, ok bool) {
	const ops = 200000
	r := rand.New(rand.NewPCG(seed, 1))
	incr := make([]sim.Time, ops)
	for i := range incr {
		incr[i] = 1 + sim.Time(r.Int64N(int64(sim.Millisecond)))
	}
	var per []float64
	ok = true
	for b := 0; b < microBatches; b++ {
		q := eventq.New(depth + 1)
		for i := 0; i < depth; i++ {
			q.Push(sim.Event{Time: sim.Time(r.Int64N(int64(sim.Millisecond))), Seq: uint64(i)})
		}
		seq := uint64(depth)
		var last sim.Time
		start := time.Now()
		for i := 0; i < ops; i++ {
			ev := q.Pop()
			if ev.Time < last {
				ok = false
			}
			last = ev.Time
			ev.Time += incr[i]
			ev.Seq = seq
			seq++
			q.Push(ev)
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/ops)
	}
	return median(per), ok
}

// nextLinkNS times the workload's router on the (node, packet) pairs its
// own flows meet: every hop of the first flows' paths from source to
// destination.
func nextLinkNS(b *app.Built) (float64, error) {
	const maxFlows, ops = 2048, 500000
	var nodes []sim.NodeID
	var pkts []packet.Packet
	for i, f := range b.Sim.Flows {
		if i == maxFlows {
			break
		}
		p := packet.Packet{Flow: f.ID, Src: f.Src, Dst: f.Dst}
		for n, hops := f.Src, 0; n != f.Dst; hops++ {
			l, ok := b.Sim.Router.NextLink(n, &p)
			if !ok || hops > len(b.G.Nodes) {
				return 0, fmt.Errorf("no path for flow %d at node %d", f.ID, n)
			}
			nodes = append(nodes, n)
			pkts = append(pkts, p)
			n = b.G.Peer(l, n)
		}
	}
	if len(nodes) == 0 {
		return 0, fmt.Errorf("workload has no flows to route")
	}
	var per []float64
	var sums []int64
	for batch := 0; batch < microBatches; batch++ {
		var sum int64
		start := time.Now()
		for i, j := 0, 0; i < ops; i++ {
			l, _ := b.Sim.Router.NextLink(nodes[j], &pkts[j])
			sum += int64(l)
			if j++; j == len(nodes) {
				j = 0
			}
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/ops)
		sums = append(sums, sum)
	}
	for _, s := range sums {
		if s != sums[0] {
			return 0, fmt.Errorf("routing lookups are not deterministic")
		}
	}
	return median(per), nil
}
