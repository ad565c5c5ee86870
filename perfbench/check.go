package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"
)

// counts are the exact, deterministic results of one kernel run. For a
// given workload and seed they must repeat bit for bit across runs,
// kernels (except Rounds, which the sequential kernel does not have) and
// builds of the benchmark.
type counts struct {
	Events      uint64 `json:"events"`
	Rounds      uint64 `json:"rounds"`
	Fingerprint uint64 `json:"fingerprint"`
	Completed   int    `json:"completed"`
	Drops       uint64 `json:"drops"`
	Retransmits uint64 `json:"retransmits"`
}

// outcome is one kernel run as the benchmark saw it.
type outcome struct {
	Kernel string
	WallNS int64
	Counts counts
	Err    error
}

// tally is the correctness gate: it counts kernel runs, charges a run as
// failed when it errored or panicked, disagrees with the same iteration's
// sequential run, or drifts from an earlier run of the same kernel or from
// the pinned counts, and keeps a message per failure.
type tally struct {
	Workload  string
	Pin       *pin // nil when the seed has no pinned counts
	Attempted int
	Failed    int
	Problems  []string
	first     map[string]counts
}

// iteration accounts one iteration's runs, comparing each with ref, the
// sequential run of the same inputs (ref may itself be among runs).
func (t *tally) iteration(iter int, ref outcome, runs []outcome) {
	if t.first == nil {
		t.first = map[string]counts{}
	}
	for _, o := range runs {
		t.Attempted++
		if msg := t.check(ref, o); msg != "" {
			t.Failed++
			t.Problems = append(t.Problems, fmt.Sprintf("%s iteration %d kernel %s: %s", t.Workload, iter, o.Kernel, msg))
		}
	}
}

func (t *tally) check(ref, o outcome) string {
	if o.Err != nil {
		return o.Err.Error()
	}
	if o.Kernel != ref.Kernel {
		if ref.Err != nil {
			return "no sequential reference to compare with"
		}
		r, c := ref.Counts, o.Counts
		if c.Fingerprint != r.Fingerprint || c.Completed != r.Completed || c.Events != r.Events {
			return fmt.Sprintf("disagrees with sequential: fingerprint %016x/%016x, completed %d/%d, events %d/%d",
				c.Fingerprint, r.Fingerprint, c.Completed, r.Completed, c.Events, r.Events)
		}
	}
	if prev, ok := t.first[o.Kernel]; !ok {
		t.first[o.Kernel] = o.Counts
	} else if prev != o.Counts {
		return fmt.Sprintf("exact counts drifted: %+v, earlier %+v", o.Counts, prev)
	}
	if t.Pin != nil {
		if msg := t.Pin.check(o.Kernel, o.Counts); msg != "" {
			return msg
		}
	}
	return ""
}

// expect accounts one check that is not a kernel run, such as a layer's
// own result check; a false ok charges it as failed with the message.
func (t *tally) expect(ok bool, format string, args ...any) {
	t.Attempted++
	if !ok {
		t.Failed++
		t.Problems = append(t.Problems, t.Workload+": "+fmt.Sprintf(format, args...))
	}
}

// pin is the exact counts recorded for one workload and seed. Rounds is
// the round count of the round-based kernels; MailboxSends the Unison
// run's cross-LP event total.
type pin struct {
	counts
	MailboxSends uint64 `json:"mailbox_sends"`
}

func (p *pin) check(kernel string, c counts) string {
	want := p.counts
	if kernel == "sequential" || kernel == "vseq" {
		want.Rounds = 0
	}
	if c != want {
		return fmt.Sprintf("exact counts %+v differ from the pinned %+v", c, want)
	}
	return ""
}

// pinnedJSON holds the exact counts of each workload at the seeds later
// changes check their claims on: workload -> seed -> counts.
//
//go:embed pinned.json
var pinnedJSON []byte

func loadPin(workload string, seed uint64) (*pin, error) {
	var all map[string]map[string]*pin
	if err := json.Unmarshal(pinnedJSON, &all); err != nil {
		return nil, fmt.Errorf("pinned.json: %w", err)
	}
	return all[workload][strconv.FormatUint(seed, 10)], nil
}
