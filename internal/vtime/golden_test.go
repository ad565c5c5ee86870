package vtime

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"unison/internal/obs"
	"unison/internal/sim"
)

// digestProbe folds every record a run emits, in emission order and with
// every field, into one FNV-1a digest.
type digestProbe struct {
	h hash.Hash64
}

func newDigestProbe() *digestProbe { return &digestProbe{h: fnv.New64a()} }

func (d *digestProbe) BeginRun(meta obs.RunMeta) {
	fmt.Fprintf(d.h, "%s/%d/%d\n", meta.Kernel, meta.Workers, meta.LPs)
}

func (d *digestProbe) OnRound(r *obs.RoundRecord) {
	var b [8]byte
	for _, v := range []uint64{
		r.Round, uint64(r.Worker), uint64(r.LBTS), r.Events,
		uint64(r.ProcNS), uint64(r.SyncNS), uint64(r.MsgNS), uint64(r.WaitGlobalNS),
		r.Sends, r.SendBytes, r.Recvs, r.FELDepth, r.Migrations,
		uint64(r.AllReduceNS), r.Retries, uint64(r.CkptNS), r.CkptBytes,
	} {
		binary.LittleEndian.PutUint64(b[:], v)
		d.h.Write(b[:])
	}
}

func (d *digestProbe) EndRun(*sim.RunStats) {}

// goldenRun is the exact virtual accounting of one run.
type goldenRun struct {
	virtualT    int64
	rounds      uint64
	workers     [][4]int64 // P, S, M, Events
	cacheRefs   uint64
	cacheMisses uint64
	digest      uint64
}

func (g goldenRun) String() string {
	return fmt.Sprintf("{virtualT: %d, rounds: %d, workers: %#v, cacheRefs: %d, cacheMisses: %d, digest: %#x}",
		g.virtualT, g.rounds, g.workers, g.cacheRefs, g.cacheMisses, g.digest)
}

// TestVirtualAccountingGolden pins the virtual testbed's accounting to the
// nanosecond on the k=4 fat-tree: virtual time, rounds, each worker's
// P/S/M/Events, the cache-model counters, and a digest of the full
// per-round record stream. The values were recorded from the kernels as
// they stood before their live and virtual copies were merged (the round
// kernels into one engine, the null-message kernel into one rank step);
// any drift in the modeled costs, the placement of LPs onto virtual
// cores or the record contents fails here.
func TestVirtualAccountingGolden(t *testing.T) {
	// The null-message cases run on barrier4's partition and on one that
	// halves it (ranks 0,1 → 0 and 2,3 → 1).
	_, _, lpOf := scenario(3, 0.3)
	half := make([]int32, len(lpOf))
	for i, lp := range lpOf {
		half[i] = lp / 2
	}
	cases := []struct {
		name string
		cfg  Config
		want goldenRun
	}{
		{"sequential", Config{Algo: Sequential}, goldenRun{
			virtualT: 48885000, rounds: 0,
			workers: [][4]int64{
				{48885000, 0, 0, 41411},
			},
			cacheRefs: 41410, cacheMisses: 14948,
			digest: 0xe32fd5900d02d570,
		}},
		{"barrier4", Config{Algo: Barrier}, goldenRun{
			virtualT: 18006720, rounds: 331,
			workers: [][4]int64{
				{10818500, 6904300, 283920, 10742},
				{15031000, 2268200, 707520, 15027},
				{8122000, 9404960, 479760, 8118},
				{7568500, 9999740, 438480, 7524},
			},
			cacheRefs: 41410, cacheMisses: 258,
			digest: 0xd920aec6ff18ee,
		}},
		{"unison1", Config{Algo: Unison, Cores: 1}, goldenRun{
			virtualT: 47275120, rounds: 331,
			workers: [][4]int64{
				{44360500, 397200, 2517420, 41411},
			},
			cacheRefs: 41410, cacheMisses: 5899,
			digest: 0x27d5723c482e58e3,
		}},
		{"unison4", Config{Algo: Unison, Cores: 4}, goldenRun{
			virtualT: 12880220, rounds: 331,
			workers: [][4]int64{
				{11070000, 1131920, 678300, 10622},
				{10783000, 1473340, 623880, 10260},
				{10765000, 1510300, 604920, 10239},
				{10796000, 1473900, 610320, 10290},
			},
			cacheRefs: 41410, cacheMisses: 4006,
			digest: 0x51ba1b35849ad26e,
		}},
		{"unison16", Config{Algo: Unison, Cores: 16}, goldenRun{
			virtualT: 6392020, rounds: 331,
			workers: [][4]int64{
				{4334500, 1804740, 252780, 4311},
				{3414500, 2784080, 193440, 3376},
				{3129500, 3092960, 169560, 3085},
				{2894500, 3324720, 172800, 2826},
				{2766500, 3456680, 168840, 2696},
				{2914000, 3299940, 178080, 2846},
				{2655000, 3572620, 164400, 2580},
				{2506500, 3733240, 152280, 2413},
				{2417000, 3831500, 143520, 2334},
				{2405000, 3852620, 134400, 2306},
				{2423000, 3823700, 145320, 2339},
				{2166500, 4082360, 143160, 2066},
				{2159000, 4103660, 129360, 2064},
				{2217000, 4050580, 124440, 2117},
				{2134000, 4129860, 128160, 2028},
				{2125000, 4150140, 116880, 2024},
			},
			cacheRefs: 41410, cacheMisses: 2501,
			digest: 0xabc4309113905a13,
		}},
		{"hetero", Config{Algo: Unison, Cores: 4, CoreSpeeds: []float64{1, 1, 0.5, 0.5}}, goldenRun{
			virtualT: 17390200, rounds: 331,
			workers: [][4]int64{
				{14384500, 2141160, 864540, 13657},
				{14154000, 2446000, 790200, 13394},
				{15104000, 1419320, 866880, 7239},
				{14881000, 1650720, 858480, 7121},
			},
			cacheRefs: 41410, cacheMisses: 4240,
			digest: 0x8e35f15686c5b387,
		}},
		{"hetero-aware", Config{Algo: Unison, Cores: 4, CoreSpeeds: []float64{1, 1, 0.5, 0.5}, SpeedAware: true}, goldenRun{
			virtualT: 17433700, rounds: 331,
			workers: [][4]int64{
				{14339000, 2230160, 864540, 13626},
				{14279500, 2364000, 790200, 13515},
				{15106000, 1460820, 866880, 7176},
				{14928000, 1647220, 858480, 7094},
			},
			cacheRefs: 41410, cacheMisses: 4449,
			digest: 0x1b836340ffb06675,
		}},
		{"hybrid2x2", Config{Algo: Hybrid, CoresPerHost: 2}, goldenRun{
			virtualT: 15409120, rounds: 331,
			workers: [][4]int64{
				{9904500, 4884520, 620100, 9569},
				{9640500, 5220460, 548160, 9291},
				{11701500, 3026020, 681600, 11387},
				{11511500, 3230060, 667560, 11164},
			},
			cacheRefs: 41410, cacheMisses: 2694,
			digest: 0x64149270dc63e56e,
		}},
		{"nullmsg4", Config{Algo: NullMessage, LPOf: lpOf}, goldenRun{
			virtualT: 15812540, rounds: 640,
			workers: [][4]int64{
				{10817500, 4785480, 209560, 10741},
				{15031000, 504860, 276680, 15027},
				{8122000, 7390060, 300480, 8118},
				{7568500, 8048760, 195280, 7524},
			},
			cacheRefs: 41410, cacheMisses: 258,
			digest: 0x8df813420d323f91,
		}},
		{"nullmsg2", Config{Algo: NullMessage, LPOf: half}, goldenRun{
			virtualT: 28810060, rounds: 4,
			workers: [][4]int64{
				{28610500, 119000, 80560, 25768},
				{17247500, 11481440, 81120, 15642},
			},
			cacheRefs: 41410, cacheMisses: 8896,
			digest: 0x1ff9ddc392688d03,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, _, lpOf := scenario(3, 0.3)
			cfg := tc.cfg
			switch cfg.Algo {
			case Barrier:
				cfg.LPOf = lpOf
			case Hybrid:
				cfg.HostOf = make([]int32, m.Nodes)
				for i := range cfg.HostOf {
					cfg.HostOf[i] = int32(i % 2)
				}
			}
			d := newDigestProbe()
			cfg.Observe = d
			st, err := Run(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := goldenRun{
				virtualT: st.VirtualT, rounds: st.Rounds,
				cacheRefs: st.CacheRefs, cacheMisses: st.CacheMisses,
				digest: d.h.Sum64(),
			}
			for _, w := range st.Workers {
				got.workers = append(got.workers, [4]int64{w.P, w.S, w.M, int64(w.Events)})
			}
			if got.String() != tc.want.String() {
				t.Errorf("virtual accounting drifted\n got %v\nwant %v", got, tc.want)
			}
		})
	}
}
