package main

import (
	"fmt"
	"runtime"
	"time"

	"unison/internal/app"
	"unison/internal/sim"
)

// The kernels of the untraced pass, sequential first: it is the reference
// the others are checked against.
var e2eKernels = []string{"sequential", "unison", "barrier"}

// minIters is the fewest iterations a pass makes, however short --seconds.
const minIters = 3

// build resolves sc and finalizes its model, reporting a panic as an error.
func build(sc *app.Scenario) (b *app.Built, m *sim.Model, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("build panicked: %v", r)
		}
	}()
	if b, err = sc.Build(); err != nil {
		return nil, nil, err
	}
	return b, b.Sim.Model(), nil
}

// execute runs m under b's kernel, timing the call from outside and
// reporting a panic as an error.
func execute(b *app.Built, m *sim.Model) (o outcome, st *sim.RunStats) {
	o.Kernel = b.Scenario.Kernel.Kind
	defer func() {
		if r := recover(); r != nil {
			o.Err = fmt.Errorf("kernel panicked: %v", r)
		}
	}()
	// The sequential kernel runs on one P, as a single-core baseline
	// does. With a second, idle P it ran about 15% slower and half again
	// as noisy on a 2-vCPU host, which measured the Go runtime, not the
	// kernel.
	if o.Kernel == "sequential" {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	start := time.Now()
	st, err := b.RunKernel(m)
	o.WallNS = time.Since(start).Nanoseconds()
	if err != nil {
		o.Err = err
		return o, nil
	}
	mon := b.Sim.Mon
	o.Counts = counts{
		Events:      st.Events,
		Rounds:      st.Rounds,
		Fingerprint: mon.Fingerprint(),
		Completed:   mon.Completed(),
		Drops:       b.Sim.Net.Drops(),
		Retransmits: mon.TotalRetransmits(),
	}
	return o, st
}

// settle collects the heap twice: the first collection moves sync.Pool
// contents (pooled packet events, say) to the pools' victim caches, where
// they stay live; the second frees them. A single collection would leave
// the live heap, and the state the next run starts from, depending on
// what the pools happened to hold.
func settle() {
	runtime.GC()
	runtime.GC()
}

// e2eSample is one timed kernel run of the untraced pass.
type e2eSample struct {
	outcome
	SetupS float64
	HeapMB float64 // live heap the run's Sim holds; measured for Unison only
}

// timedRun builds and runs sc once with the heap settled before each
// timed part, so a run does not pay for its predecessor's garbage.
func timedRun(sc *app.Scenario, heap bool) e2eSample {
	var s e2eSample
	var before runtime.MemStats
	settle()
	if heap {
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	b, m, err := build(sc)
	s.SetupS = time.Since(start).Seconds()
	if err != nil {
		s.Kernel, s.Err = sc.Kernel.Kind, err
		return s
	}
	settle()
	s.outcome, _ = execute(b, m)
	if heap {
		var after runtime.MemStats
		settle()
		runtime.ReadMemStats(&after)
		s.HeapMB = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / 1e6
		runtime.KeepAlive(b)
	}
	return s
}

// endToEnd is the untraced pass: whole iterations of sequential, Unison
// and barrier runs until the budget is spent, each on a fresh build.
func endToEnd(w *workload, seed uint64, budget time.Duration, t *tally, logf func(string, ...any)) []metric {
	rates := map[string][]float64{}
	var setups, heaps []float64
	start := time.Now()
	var last time.Duration // the previous iteration's length: the next stays within the budget
	for it := 0; it < minIters || time.Since(start)+last <= budget; it++ {
		itStart := time.Now()
		runs := make([]outcome, 0, len(e2eKernels))
		for _, k := range e2eKernels {
			s := timedRun(w.scenario(seed, k), k == "unison")
			runs = append(runs, s.outcome)
			setups = append(setups, s.SetupS)
			if s.Err != nil {
				continue
			}
			rates[k] = append(rates[k], float64(s.Counts.Events)/(float64(s.WallNS)/1e9))
			if k == "unison" {
				heaps = append(heaps, s.HeapMB)
			}
			logf("iteration %d %-10s %8.3f s  %d events  setup %.1f ms", it, k, float64(s.WallNS)/1e9, s.Counts.Events, s.SetupS*1e3)
		}
		t.iteration(it, runs[0], runs)
		last = time.Since(itStart)
	}
	return []metric{
		{"seq_events_per_s", median(rates["sequential"]), "1/s"},
		{"unison_events_per_s", median(rates["unison"]), "1/s"},
		{"barrier_events_per_s", median(rates["barrier"]), "1/s"},
		{"setup_s", median(setups), "s"},
		{"live_heap_mb", median(heaps), "MB"},
	}
}
