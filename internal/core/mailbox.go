package core

import "unison/internal/sim"

// This file implements the staged mailbox of the round hot path.
//
// The original design gave every LP a mail[worker] slice-of-slices — an
// O(LPs × threads) matrix of slice headers whose rows grew and shrank
// with traffic, churning the allocator and scattering a round's cross-LP
// events over many small backing arrays. The staged design inverts the
// layout: each worker owns ONE flat append-only buffer of
// (event, next-index) entries, and threads the entries addressed to the
// same LP into an intrusive singly-linked chain whose head lives in a
// per-worker head[LP] array. Appending is O(1) with no per-destination
// allocation; after the first few rounds the backing arrays reach their
// high-water mark and the event-delivery path allocates nothing at all.
//
// Synchronization is unchanged from the matrix design: an outbox is
// written only by its owning worker during phase 1 (and never during
// phases 2–4), and read by the phase-3 workers after a barrier, so the
// phase barriers provide the happens-before edges.
//
// Chains are built head-first, so gather yields a worker's events to one
// LP in reverse creation order. That is safe because (Time, Src, Seq) is
// a total order with no duplicate keys: the FEL dequeues the same
// sequence whatever the insertion order (pinned by equivalence_test.go).

// stagedEvent is one cross-LP event parked in a worker's staging buffer.
type stagedEvent struct {
	ev   sim.Event
	next int32 // previous entry for the same target LP, -1 ends the chain
}

// outbox is one worker's staging buffer for cross-LP events of the
// current round. The backing arrays are reused across rounds.
type outbox struct {
	buf     []stagedEvent
	head    []int32  // head[lp] indexes buf, -1 when lp has no events
	touched []int32  // LPs with non-empty chains, for O(touched) reset
	_       [64]byte // keep neighbouring workers' outboxes off one cache line
}

// newOutbox returns an empty outbox able to address nLP target LPs.
func newOutbox(nLP int) outbox {
	head := make([]int32, nLP)
	for i := range head {
		head[i] = -1
	}
	return outbox{head: head}
}

// put stages ev for delivery to lp in the next receive phase.
//
//unison:owner producer
func (o *outbox) put(lp int32, ev sim.Event) {
	h := o.head[lp]
	if h < 0 {
		o.touched = append(o.touched, lp)
	}
	o.head[lp] = int32(len(o.buf))
	o.buf = append(o.buf, stagedEvent{ev: ev, next: h})
}

// reset clears the outbox for the next round, keeping capacity. Closure
// pointers are dropped so executed events can be collected. Owners call
// this at the top of their phase 1, after the phase-4 barrier has
// published every phase-3 read of the previous round.
//
//unison:owner producer
func (o *outbox) reset() {
	for _, lp := range o.touched {
		o.head[lp] = -1
	}
	o.touched = o.touched[:0]
	for i := range o.buf {
		o.buf[i].ev.Fn = nil
	}
	o.buf = o.buf[:0]
}

// staged appends to dst the LPs of group gi (groupOf maps LP to group)
// that some outbox staged events for, each once, and returns the extended
// slice: phase 3's received list.
//
//unison:owner consumer
func staged(outboxes []outbox, groupOf []int32, gi int32, dst []int32) []int32 {
	for w := range outboxes {
		for _, lp := range outboxes[w].touched {
			if groupOf[lp] == gi && !stagedAny(outboxes[:w], lp) {
				dst = append(dst, lp)
			}
		}
	}
	return dst
}

// stagedAny reports whether any of outboxes staged events for lp.
//
//unison:owner consumer
func stagedAny(outboxes []outbox, lp int32) bool {
	for w := range outboxes {
		if outboxes[w].head[lp] >= 0 {
			return true
		}
	}
	return false
}

// gather appends every staged event addressed to lp, across all workers'
// outboxes, to dst and returns the extended slice.
//
//unison:owner consumer
func gather(outboxes []outbox, lp int32, dst []sim.Event) []sim.Event {
	for w := range outboxes {
		o := &outboxes[w]
		for i := o.head[lp]; i >= 0; i = o.buf[i].next {
			dst = append(dst, o.buf[i].ev)
		}
	}
	return dst
}
