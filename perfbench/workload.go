package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"unison/internal/app"
)

// workloadsJSON is the benchmark's workload record: the environment it was
// defined on and, per workload, the reason it exists and its scenario.
//
//go:embed workloads.json
var workloadsJSON []byte

type record struct {
	Note        string           `json:"note"`
	Environment environment      `json:"environment"`
	Workloads   []workloadRecord `json:"workloads"`
}

type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Threads    int    `json:"unison_threads"`
	Ranks      int    `json:"barrier_ranks"`
}

type workloadRecord struct {
	Name     string          `json:"name"`
	Why      string          `json:"why"`
	Scenario json.RawMessage `json:"scenario"`
}

// workload is one parsed benchmark input.
type workload struct {
	Name string
	Why  string
	sc   *app.Scenario
}

// loadWorkloads parses the embedded record. Scenarios go through the
// strict scenario parser, so an unknown key fails here, not mid-run.
func loadWorkloads() (*record, []*workload, error) {
	var rec record
	if err := json.Unmarshal(workloadsJSON, &rec); err != nil {
		return nil, nil, fmt.Errorf("workloads.json: %w", err)
	}
	var ws []*workload
	for _, r := range rec.Workloads {
		sc, err := app.ParseScenario(r.Scenario, "json")
		if err != nil {
			return nil, nil, fmt.Errorf("workloads.json: workload %s: %w", r.Name, err)
		}
		if sc.Kernel.Threads != rec.Environment.Threads || sc.Kernel.Ranks != rec.Environment.Ranks {
			return nil, nil, fmt.Errorf("workloads.json: workload %s: kernel threads/ranks %d/%d differ from the environment's %d/%d",
				r.Name, sc.Kernel.Threads, sc.Kernel.Ranks, rec.Environment.Threads, rec.Environment.Ranks)
		}
		ws = append(ws, &workload{Name: r.Name, Why: r.Why, sc: sc})
	}
	return &rec, ws, nil
}

func findWorkload(ws []*workload, name string) (*workload, error) {
	for _, w := range ws {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// scenario returns the workload's scenario for one run: the given seed
// and kernel kind, everything else as recorded. Build never mutates a
// scenario, so the copies may share the traffic section.
func (w *workload) scenario(seed uint64, kernel string) *app.Scenario {
	sc := *w.sc
	sc.Seed = seed
	sc.Kernel.Kind = kernel
	return &sc
}
