package main

import (
	"errors"
	"strings"
	"testing"
)

func fakeRun(kernel string, c counts) outcome { return outcome{Kernel: kernel, WallNS: 1, Counts: c} }

var good = counts{Events: 100, Rounds: 7, Fingerprint: 0xfeed, Completed: 9, Drops: 2, Retransmits: 1}

func seqOf(c counts) counts {
	c.Rounds = 0
	return c
}

func TestTallyCountsFailedRuns(t *testing.T) {
	wrongFP, wrongEvents, wrongDone := good, good, good
	wrongFP.Fingerprint++
	wrongEvents.Events++
	wrongDone.Completed--
	tl := &tally{Workload: "w"}
	seq := fakeRun("sequential", seqOf(good))
	tl.iteration(0, seq, []outcome{seq, fakeRun("unison", good), fakeRun("barrier", good)})
	if tl.Attempted != 3 || tl.Failed != 0 {
		t.Fatalf("clean iteration: attempted %d failed %d, problems %v", tl.Attempted, tl.Failed, tl.Problems)
	}
	tl.iteration(1, seq, []outcome{
		seq,
		fakeRun("unison", wrongFP),
		{Kernel: "barrier", Err: errors.New("kernel panicked: boom")},
	})
	tl.iteration(2, seq, []outcome{seq, fakeRun("unison", wrongEvents), fakeRun("barrier", wrongDone)})
	if tl.Attempted != 9 || tl.Failed != 4 {
		t.Fatalf("attempted %d failed %d, want 9 and 4; problems %v", tl.Attempted, tl.Failed, tl.Problems)
	}
	for i, want := range []string{"iteration 1 kernel unison: disagrees", "iteration 1 kernel barrier: kernel panicked", "iteration 2 kernel unison", "iteration 2 kernel barrier"} {
		if !strings.Contains(tl.Problems[i], want) || !strings.HasPrefix(tl.Problems[i], "w ") {
			t.Errorf("problem %d = %q, want it to name the workload and %q", i, tl.Problems[i], want)
		}
	}
}

func TestTallyWithoutReferenceFailsEveryRun(t *testing.T) {
	tl := &tally{Workload: "w"}
	seq := outcome{Kernel: "sequential", Err: errors.New("build panicked")}
	tl.iteration(0, seq, []outcome{seq, fakeRun("unison", good)})
	if tl.Failed != 2 {
		t.Fatalf("failed %d, want 2: %v", tl.Failed, tl.Problems)
	}
}

func TestTallyReportsDriftAsFailure(t *testing.T) {
	// Drops agree with nothing the sequential comparison covers, so only
	// the repeat check can catch this drift.
	drifted := good
	drifted.Drops++
	tl := &tally{Workload: "w"}
	seq := fakeRun("sequential", seqOf(good))
	tl.iteration(0, seq, []outcome{fakeRun("unison", good)})
	tl.iteration(1, seq, []outcome{fakeRun("unison", drifted)})
	if tl.Failed != 1 || !strings.Contains(tl.Problems[0], "drifted") {
		t.Fatalf("failed %d, problems %v", tl.Failed, tl.Problems)
	}
}

func TestTallyChecksPinnedCounts(t *testing.T) {
	p := &pin{counts: good}
	tl := &tally{Workload: "w", Pin: p}
	seq := fakeRun("sequential", seqOf(good))
	tl.iteration(0, seq, []outcome{seq, fakeRun("unison", good), fakeRun("vseq", seqOf(good))})
	if tl.Failed != 0 {
		t.Fatalf("matching pin failed: %v", tl.Problems)
	}
	p.Retransmits++
	tl = &tally{Workload: "w", Pin: p}
	tl.iteration(0, seq, []outcome{seq, fakeRun("unison", good)})
	if tl.Failed != 2 {
		t.Fatalf("failed %d, want 2 against a wrong pin: %v", tl.Failed, tl.Problems)
	}
}

func TestExpectCountsChecks(t *testing.T) {
	tl := &tally{Workload: "w"}
	tl.expect(true, "unused")
	tl.expect(false, "layer %s broke", "x")
	if tl.Attempted != 2 || tl.Failed != 1 || tl.Problems[0] != "w: layer x broke" {
		t.Fatalf("%+v", tl)
	}
}
