package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"testing"

	"unison/internal/app"
)

type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmark(t *testing.T) *benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return &b
}

// TestWorkloadRecordIsCanonical pins each recorded scenario to its
// canonical Scenario.Marshal form, and the workload names to BENCHMARK.json.
func TestWorkloadRecordIsCanonical(t *testing.T) {
	rec, ws, err := loadWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	bench := readBenchmark(t)
	if len(bench.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, workloads.json %d", len(bench.Workloads), len(ws))
	}
	for i, w := range ws {
		if bench.Workloads[i].Name != w.Name || w.sc.Name != w.Name {
			t.Errorf("workload %d: names %q (BENCHMARK.json), %q, %q (scenario)", i, bench.Workloads[i].Name, w.Name, w.sc.Name)
		}
		canon, err := w.sc.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := json.Indent(&got, rec.Workloads[i].Scenario, "", "  "); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bytes.TrimSpace(got.Bytes()), bytes.TrimSpace(canon)) {
			t.Errorf("workload %s is not in canonical form; want\n%s", w.Name, canon)
		}
	}
}

// smallWorkload is the first workload shrunk to a k=4 fat-tree and 1 ms,
// so both passes run in seconds.
func smallWorkload(t *testing.T) *workload {
	_, ws, err := loadWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	sc := *ws[0].sc
	sc.Topology.K = 4
	sc.Stop = app.Duration(1e6)
	return &workload{Name: "small", sc: &sc}
}

func names(ms []metric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name+" "+m.Unit)
	}
	sort.Strings(out)
	return out
}

func wantNames(list []declared) []string {
	var out []string
	for _, m := range list {
		out = append(out, m.Name+" "+m.Unit)
	}
	sort.Strings(out)
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPassesReportTheDeclaredMetrics runs both passes on a small workload:
// they must pass their correctness gate and report exactly the metrics
// BENCHMARK.json declares, with the declared units.
func TestPassesReportTheDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the kernels")
	}
	w := smallWorkload(t)
	bench := readBenchmark(t)
	logf := func(string, ...any) {}

	tl := &tally{Workload: w.Name}
	ms := endToEnd(w, 3, 0, tl, logf)
	if tl.Failed != 0 || tl.Attempted != minIters*len(e2eKernels) {
		t.Errorf("untraced pass: attempted %d failed %d: %v", tl.Attempted, tl.Failed, tl.Problems)
	}
	if got, want := names(ms), wantNames(bench.EndToEnd); !equal(got, want) {
		t.Errorf("untraced metrics\n%v\nwant\n%v", got, want)
	}

	tl = &tally{Workload: w.Name}
	ms, err := layers(w, 3, 0, t.TempDir(), tl, logf)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Failed != 0 {
		t.Errorf("traced pass: %v", tl.Problems)
	}
	if got, want := names(ms), wantNames(bench.PerLayer); !equal(got, want) {
		t.Errorf("traced metrics\n%v\nwant\n%v", got, want)
	}
}
