// Command perfbench is the repository benchmark. For one workload it
// builds a fat-tree scenario from a seed, runs the sequential, Unison and
// barrier kernels on it, checks that they agree, and prints its metrics.
//
// With --trace 0 it prints the end-to-end metrics: events per second of
// each kernel, set-up time and live heap. With --trace 1 a separate traced
// pass prints the per-layer metrics, measured from outside the program by
// timing calls into each layer's public functions, attaching an obs
// registry and taking a CPU profile.
//
// Every metric is printed by name with its unit; the last line of
// standard output is one JSON object {correct, attempted, failed,
// metrics}. Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload fattree-grpc --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

// procs is the parallelism every run uses: two Unison threads and two
// barrier ranks, each on its own core.
const procs = 2

// metric is one reported number.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name (see workloads.json)")
	seed := fs.Uint64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Int("seconds", 20, "measuring time of the pass")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, 1: per-layer metrics from the traced pass")
	workdir := fs.String("workdir", ".bench_build", "directory for temporary files (checkpoints)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if n := runtime.NumCPU(); n < procs {
		return fail(fmt.Errorf("refusing to run on %d CPU(s): the parallel kernels need %d", n, procs))
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("--trace must be 0 or 1, not %d", *trace))
	}
	if *seconds < 1 {
		return fail(fmt.Errorf("--seconds must be at least 1"))
	}
	runtime.GOMAXPROCS(procs)
	_, ws, err := loadWorkloads()
	if err != nil {
		return fail(err)
	}
	w, err := findWorkload(ws, *name)
	if err != nil {
		return fail(err)
	}
	p, err := loadPin(w.Name, *seed)
	if err != nil {
		return fail(err)
	}

	logf := func(format string, args ...any) { fmt.Fprintf(stdout, "# "+format+"\n", args...) }
	logf("workload %s seed %d: %s", w.Name, *seed, w.Why)
	logf("nproc %d GOMAXPROCS %d %s, unison threads %d, barrier ranks %d, pinned counts %t",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), w.sc.Kernel.Threads, w.sc.Kernel.Ranks, p != nil)

	t := &tally{Workload: w.Name, Pin: p}
	budget := time.Duration(*seconds) * time.Second
	var ms []metric
	if *trace == 0 {
		ms = endToEnd(w, *seed, budget, t, logf)
	} else {
		ms, err = layers(w, *seed, budget, *workdir, t, logf)
		if err != nil {
			return fail(err)
		}
	}
	return report(stdout, t, ms)
}

// report prints every metric by name with its unit, the failures, and
// the final JSON line.
func report(stdout io.Writer, t *tally, ms []metric) int {
	res := result{Metrics: map[string]metricJSON{}}
	for _, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.expect(false, "metric %s was not measured", m.Name)
			m.Value = 0
		}
		fmt.Fprintf(stdout, "%-28s %16.6g %s\n", m.Name, m.Value, m.Unit)
		res.Metrics[m.Name] = metricJSON{Value: m.Value, Unit: m.Unit}
	}
	fmt.Fprintf(stdout, "%-28s %16.6g %s\n", "failed_runs", float64(t.Failed)/float64(max(t.Attempted, 1)), "share")
	for _, p := range t.Problems {
		fmt.Fprintf(stdout, "FAIL %s\n", p)
	}
	res.Attempted, res.Failed = t.Attempted, t.Failed
	res.Correct = t.Failed == 0 && t.Attempted > 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}
