package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"unison/internal/app"
	"unison/internal/obs"
	"unison/internal/sim"
)

// minPairs is the fewest untraced/traced Unison pairs the traced pass
// makes; more follow while half the budget remains, to thicken the CPU
// profile.
const minPairs = 2

// prepare builds sc and collects the heap, so the run that follows does
// not pay for garbage left by earlier runs.
func prepare(sc *app.Scenario) (*app.Built, *sim.Model, error) {
	b, m, err := build(sc)
	settle()
	return b, m, err
}

// runOnce builds sc, attaches probe (nil for none) and runs it.
func runOnce(sc *app.Scenario, probe obs.Probe) (outcome, *sim.RunStats, *app.Built) {
	b, m, err := prepare(sc)
	if err != nil {
		return outcome{Kernel: sc.Kernel.Kind, Err: err}, nil, nil
	}
	b.Observe = probe
	o, st := execute(b, m)
	return o, st, b
}

// layers is the traced pass. It reruns the workload with the obs
// registry attached and a CPU profile running, times calls into single
// layers directly, and derives the per-layer metrics; every kernel run in
// it goes through the same correctness gate as the untraced pass.
func layers(w *workload, seed uint64, budget time.Duration, workdir string, t *tally, logf func(string, ...any)) ([]metric, error) {
	start := time.Now()
	var ms []metric
	add := func(name string, v float64, unit string) { ms = append(ms, metric{name, v, unit}) }
	iter := 0

	// Set-up: each constructor Build calls, timed directly.
	su := setupLayers(w.scenario(seed, "unison"), t)
	add("setup.topology_ms", su.topology, "ms")
	add("setup.routing_ms", su.routing, "ms")
	add("setup.traffic_ms", su.traffic, "ms")
	add("setup.stack_ms", su.stack, "ms")

	// References: a sequential run, and an untraced Unison run whose
	// allocations are counted.
	seq, _, _ := runOnce(w.scenario(seed, "sequential"), nil)
	b, m, err := prepare(w.scenario(seed, "unison"))
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	uni, _ := execute(b, m)
	runtime.ReadMemStats(&m1)
	t.iteration(iter, seq, []outcome{seq, uni})
	iter++
	if seq.Err != nil || uni.Err != nil {
		return nil, fmt.Errorf("reference runs failed: %v", t.Problems)
	}
	add("alloc_mb_per_run", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6, "MB")
	add("allocs_per_event", float64(m1.Mallocs-m0.Mallocs)/float64(uni.Counts.Events), "count")

	// Unison pairs: untraced, then traced with the registry and a CPU
	// profile. The last traced run's records give the core metrics.
	rounds := uni.Counts.Rounds
	reg := obs.NewRegistry(int(rounds) + 64)
	plain := []float64{float64(uni.WallNS)}
	var traced []float64
	cpu := map[string]int64{}
	cpuSamples := 0
	var lastUni *app.Built
	var lastSt *sim.RunStats
	var sends []uint64
	var core roundSummary
	for i := 0; i < minPairs || time.Since(start) < budget/2; i++ {
		u0, _, _ := runOnce(w.scenario(seed, "unison"), nil)
		b, m, err := prepare(w.scenario(seed, "unison"))
		if err != nil {
			return nil, err
		}
		b.Observe = reg
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		u1, st := execute(b, m)
		pprof.StopCPUProfile()
		t.iteration(iter, seq, []outcome{u0, u1})
		iter++
		if u0.Err != nil || u1.Err != nil {
			return nil, fmt.Errorf("traced runs failed: %v", t.Problems)
		}
		plain = append(plain, float64(u0.WallNS))
		traced = append(traced, float64(u1.WallNS))
		p, err := parseProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		cpuSamples += len(p.Stacks)
		for g, v := range p.groupWeights() { //unison:ordered per-key sum, each key written independently
			cpu[g] += v
		}
		core = summarize(reg.Records(), reg.Meta().Workers)
		sends = append(sends, core.Sends)
		lastUni, lastSt = b, st
		logf("pair %d: untraced %.3f s, traced %.3f s", i, float64(u0.WallNS)/1e9, float64(u1.WallNS)/1e9)
	}
	for _, s := range sends {
		t.expect(s == sends[0], "mailbox sends drifted between traced runs: %v", sends)
	}
	if t.Pin != nil {
		t.expect(core.Sends == t.Pin.MailboxSends, "mailbox sends %d differ from the pinned %d", core.Sends, t.Pin.MailboxSends)
	}
	if pinned, err := json.Marshal(pin{counts: uni.Counts, MailboxSends: core.Sends}); err == nil {
		logf("exact counts %s", pinned)
	}
	r := float64(lastSt.Rounds)
	add("core.rounds", r, "count")
	add("core.events_per_round", float64(lastSt.Events)/r, "count")
	add("core.mailbox_sends_per_round", float64(core.Sends)/r, "count")
	tot := float64(core.P + core.S + core.M)
	add("core.proc_share", float64(core.P)/tot, "share")
	add("core.sync_share", float64(core.S)/tot, "share")
	add("core.msg_share", float64(core.M)/tot, "share")
	p50, p99 := quantile(core.Makespans, 0.5), quantile(core.Makespans, 0.99)
	if !tailOK(p99.N, 0.99) {
		logf("core.round_us.p99 rests on fewer than %d samples beyond it (%d rounds)", minTail, p99.N)
	}
	add("core.round_us.p50", p50.Value, "us")
	add("core.round_us.p99", p99.Value, "us")
	add("core.round_us.samples", float64(p50.N), "count")
	add("core.imbalance", core.Imbalance, "ratio")
	add("core.migrations_per_round", float64(core.Migrations)/r, "count")
	depth := quantile(core.FELDepths, 0.5)
	add("core.fel_depth.p50", depth.Value, "count")
	add("core.speedup_vs_seq", float64(seq.WallNS)/median(plain), "ratio")
	add("syncx.wait_global_share", float64(core.WaitGlobal)/float64(core.S), "share")
	add("obs.overhead", median(traced)/median(plain), "ratio")

	var samples int64
	for _, v := range cpu { //unison:ordered integer sum
		samples += v
	}
	for _, g := range cpuGroups {
		add("cpu."+g, float64(cpu[g])/float64(samples), "share")
	}
	add("cpu.samples", float64(cpuSamples), "count")

	// Wasted work and fidelity, from the last traced Unison run (its
	// counts equal the sequential run's, or the gate above failed it).
	fcts := lastUni.Sim.Mon.FCTs()
	fp99 := quantile(fcts, 0.99)
	add("netdev.drops", float64(seq.Counts.Drops), "count")
	add("tcp.retransmits", float64(seq.Counts.Retransmits), "count")
	add("flowmon.completed", float64(seq.Counts.Completed), "count")
	add("flowmon.p99_fct_ms", fp99.Value, "ms")
	add("flowmon.fct_samples", float64(fp99.N), "count")

	// The barrier kernel with its own registry.
	breg := obs.NewRegistry(int(rounds) + 64)
	bar, _, _ := runOnce(w.scenario(seed, "barrier"), breg)
	t.iteration(iter, seq, []outcome{bar})
	iter++
	pd := summarize(breg.Records(), breg.Meta().Workers)
	ptot := float64(pd.P + pd.S + pd.M)
	add("pdes.sync_share", float64(pd.S)/ptot, "share")
	pp50 := quantile(pd.Makespans, 0.5)
	add("pdes.round_us.p50", pp50.Value, "us")
	add("pdes.round_us.samples", float64(pp50.N), "count")
	add("pdes.imbalance", pd.Imbalance, "ratio")

	// Checkpoint round trip through a mid-run snapshot.
	ck, err := ckptRoundTrip(w, seed, workdir, rounds, seq, t, &iter)
	if err != nil {
		return nil, err
	}
	add("ckpt.save_ms", ck.saveMS, "ms")
	add("ckpt.bytes", ck.bytes, "bytes")
	add("ckpt.load_ms", ck.loadMS, "ms")

	// Virtual testbed: Unison on 16 virtual cores over virtual sequential.
	vseq, vst, _ := runOnce(w.scenario(seed, "vseq"), nil)
	vsc := w.scenario(seed, "vunison")
	vsc.Kernel.Threads = 16
	vuni, vut, _ := runOnce(vsc, nil)
	t.iteration(iter, seq, []outcome{vseq, vuni})
	speedup := math.NaN()
	if vst != nil && vut != nil {
		speedup = float64(vst.VirtualT) / float64(vut.VirtualT)
	}
	add("vtime.speedup_c16", speedup, "ratio")

	// Single-layer calls at the workload's own sizes.
	ep, ok := barrierEpisodeNS()
	t.expect(ok, "syncx barrier ran a wrong number of serial sections")
	add("syncx.episode_ns", ep, "ns")
	hold, ok := pushPopNS(int(math.Max(depth.Value, 1)), seed)
	t.expect(ok, "eventq popped events out of time order")
	add("eventq.push_pop_ns", hold, "ns")
	nl, err := nextLinkNS(lastUni)
	t.expect(err == nil, "routing: %v", err)
	add("routing.next_link_ns", nl, "ns")
	logf("traced pass took %.1f s", time.Since(start).Seconds())
	return ms, nil
}

// roundSummary aggregates a registry's per-round per-worker records.
type roundSummary struct {
	Sends, Migrations   uint64
	P, S, M, WaitGlobal int64
	Makespans           []float64 // µs, per round: max over workers of P+S+M
	FELDepths           []float64 // per record
	Imbalance           float64   // mean over rounds of max(P)/mean(P)
}

// summarize folds records merged in (Round, Worker) order. Imbalance
// covers only rounds every worker reported with some processing time.
func summarize(recs []obs.RoundRecord, workers int) roundSummary {
	var s roundSummary
	var imbSum float64
	var imbRounds int
	for i := 0; i < len(recs); {
		j := i
		var maxT, maxP, sumP int64
		for ; j < len(recs) && recs[j].Round == recs[i].Round; j++ {
			r := &recs[j]
			s.Sends += r.Sends
			s.Migrations += r.Migrations
			s.P += r.ProcNS
			s.S += r.SyncNS
			s.M += r.MsgNS
			s.WaitGlobal += r.WaitGlobalNS
			s.FELDepths = append(s.FELDepths, float64(r.FELDepth))
			maxT = max(maxT, r.ProcNS+r.SyncNS+r.MsgNS)
			maxP = max(maxP, r.ProcNS)
			sumP += r.ProcNS
		}
		s.Makespans = append(s.Makespans, float64(maxT)/1e3)
		if j-i == workers && sumP > 0 {
			imbSum += float64(maxP) * float64(workers) / float64(sumP)
			imbRounds++
		}
		i = j
	}
	s.Imbalance = math.NaN()
	if imbRounds > 0 {
		s.Imbalance = imbSum / float64(imbRounds)
	}
	return s
}

// ckptRecorder keeps the snapshot records EnableCheckpoints emits.
type ckptRecorder struct{ recs []obs.RoundRecord }

func (p *ckptRecorder) BeginRun(obs.RunMeta)         {}
func (p *ckptRecorder) OnRound(rec *obs.RoundRecord) { p.recs = append(p.recs, *rec) }
func (p *ckptRecorder) EndRun(*sim.RunStats)         {}

type ckptResult struct{ saveMS, bytes, loadMS float64 }

// ckptRoundTrip runs Unison with snapshots every quarter of the run,
// restores the one nearest mid-run into a fresh build, finishes the run
// from there and requires the same results as the uninterrupted run.
func ckptRoundTrip(w *workload, seed uint64, workdir string, rounds uint64, seq outcome, t *tally, iter *int) (ckptResult, error) {
	var res ckptResult
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return res, err
	}
	dir, err := os.MkdirTemp(workdir, "ckpt-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)

	b, m, err := prepare(w.scenario(seed, "unison"))
	if err != nil {
		return res, err
	}
	rec := &ckptRecorder{}
	app.EnableCheckpoints(m, b.Sim.CkptTarget(), dir, max(rounds/4, 1), 0, rec)
	full, _ := execute(b, m)
	if len(rec.recs) == 0 {
		return res, fmt.Errorf("checkpointing run wrote no snapshot (%v)", full.Err)
	}
	var saves, sizes []float64
	mid := rec.recs[0].Round
	for _, r := range rec.recs {
		saves = append(saves, float64(r.CkptNS)/1e6)
		sizes = append(sizes, float64(r.CkptBytes))
		if absDiff(r.Round, rounds/2) < absDiff(mid, rounds/2) {
			mid = r.Round
		}
	}
	res.saveMS, res.bytes = median(saves), median(sizes)

	b2, m2, err := prepare(w.scenario(seed, "unison"))
	if err != nil {
		return res, err
	}
	start := time.Now()
	err = app.Restore(m2, b2.Sim.CkptTarget(), app.CheckpointPath(dir, mid))
	res.loadMS = float64(time.Since(start).Nanoseconds()) / 1e6
	if err != nil {
		return res, fmt.Errorf("restore round %d: %w", mid, err)
	}
	resumed, _ := execute(b2, m2)
	t.iteration(*iter, seq, []outcome{full, resumed})
	*iter++
	return res, nil
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}
