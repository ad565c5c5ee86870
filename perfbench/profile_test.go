package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"

	"unison/internal/eventq"
	"unison/internal/sim"
)

func TestGroupCharges(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"unison/internal/eventq.(*Queue).Pop", "unison/internal/core.(*run).workerLoop"}, "eventq"},
		// Library time counts toward the layer that called it.
		{[]string{"runtime.memmove", "unison/internal/packet.Checksum", "unison/internal/netdev.(*pktEvt).run"}, "packet"},
		{[]string{"sync/atomic.(*Uint64).Load", "unison/internal/syncx.(*Barrier).WaitSerial", "unison/internal/core.(*run).workerLoop"}, "syncx"},
		// Repository packages that are not layers pass to their caller.
		{[]string{"unison/internal/rng.Mix", "unison/internal/routing.(*ECMP).NextLink"}, "routing"},
		{[]string{"unison/internal/netdev.(*Network).send.func1"}, "netdev"},
		// The collector wins wherever it is on the stack.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "unison/internal/tcp.(*Stack).send"}, "runtime_gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "other"},
		{[]string{"unison/internal/app.(*Sim).Model"}, "other"},
		{nil, "other"},
	} {
		if got := group(c.stack); got != c.want {
			t.Errorf("group(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestRepoPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"unison/internal/obs/live.(*State).Fold": "obs",
		"unison/internal/sim.(*Ctx).Schedule":    "sim",
		"unison.Run":                             "",
		"runtime.mallocgc":                       "",
	} {
		if got := repoPackage(fn); got != want {
			t.Errorf("repoPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestParseProfileOfRealRun profiles a busy event queue with runtime/pprof
// and checks that the decoder finds the samples and charges them to eventq.
func TestParseProfileOfRealRun(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	q := eventq.New(4096)
	for i := 0; i < 4096; i++ {
		q.Push(sim.Event{Time: sim.Time(i * 7919 % 4096), Seq: uint64(i)})
	}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		ev := q.Pop()
		ev.Time += 4096
		q.Push(ev)
	}
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Stacks) == 0 {
		t.Fatal("no samples decoded")
	}
	// The loop itself belongs to no layer, and under the race detector
	// much of the time is instrumentation without a Go caller, so only
	// require eventq to lead the layers.
	w := p.groupWeights()
	for g, v := range w { //unison:ordered independent comparisons
		if g != "eventq" && g != "other" && v >= w["eventq"] {
			t.Fatalf("group %s (%d) is not below eventq (%d): %v", g, v, w["eventq"], w)
		}
	}
	if w["eventq"] == 0 {
		t.Fatalf("no weight charged to eventq: %v", w)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Error("garbage parsed")
	}
	if err := fields([]byte{0x0a, 0x05, 0x01}, func(int, uint64, []byte) error { return nil }); err == nil {
		t.Error("truncated field parsed")
	}
}
