package pdes

import (
	"errors"
	"math"
)

// The virtual executor is a meta-simulation: the ranks are themselves
// simulated as processes with virtual CPU clocks, all on one goroutine.
// A message sent at a sender's virtual time V arrives at the receiver at
// V + MsgNS; a rank that cannot progress waits until its earliest pending
// arrival, or parks until a message wakes it (accounted as
// synchronization time S). Because CMB is asynchronous, its timing cannot
// be expressed in rounds — the meta-simulation computes the true
// interleaving for any core count.

// runVirtual steps the runnable rank with the smallest virtual clock
// until every rank has terminated.
func (x *nmRun) runVirtual() error {
	var ready []nmMsg
	for {
		var pick *nmRank
		for _, r := range x.ranks {
			if !r.done && !r.parked && (pick == nil || r.v < pick.v) {
				pick = r
			}
		}
		if pick == nil {
			for _, r := range x.ranks {
				if !r.done {
					return errors.New("pdes: null message virtual run deadlocked")
				}
			}
			return nil
		}
		// The messages that have arrived by the rank's clock are
		// deliverable, in send order. A rank never sends to itself, so
		// its step leaves the rest as they are.
		ready = ready[:0]
		rest := pick.inbox.msgs[:0]
		earliest := int64(math.MaxInt64)
		for _, msg := range pick.inbox.msgs {
			if msg.vArrive > pick.v {
				rest = append(rest, msg)
				earliest = min(earliest, msg.vArrive)
			} else {
				ready = append(ready, msg)
			}
		}
		pick.inbox.msgs = rest
		if x.step(pick, ready) {
			continue
		}
		// No progress: wait for the earliest pending arrival, or park.
		if len(rest) == 0 {
			pick.parked = true
		} else {
			pick.s += earliest - pick.v
			pick.v = earliest
		}
	}
}

// deliver queues msg at r, waking r at the arrival time if parked.
func (r *nmRank) deliver(msg nmMsg) {
	r.inbox.msgs = append(r.inbox.msgs, msg)
	if r.parked {
		if msg.vArrive > r.v {
			r.s += msg.vArrive - r.v
			r.v = msg.vArrive
		}
		r.parked = false
	}
}
