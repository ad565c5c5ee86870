package pdes

import (
	"sync"

	"unison/internal/sim"
)

// The live executor runs one goroutine per rank. Ranks exchange messages
// through mutex/cond inboxes, and each rank times its phases with a
// stopwatch for the P/S/M decomposition.

// nmInbox is a rank's input channel multiplexer. The virtual executor,
// which runs on one goroutine, uses msgs directly.
type nmInbox struct {
	mu   sync.Mutex
	cond sync.Cond // on mu
	msgs []nmMsg
	seq  uint64
}

func (in *nmInbox) post(m nmMsg) {
	in.mu.Lock()
	in.msgs = append(in.msgs, m)
	in.seq++
	in.cond.Signal()
	in.mu.Unlock()
}

func (in *nmInbox) take(buf []nmMsg) ([]nmMsg, uint64) {
	in.mu.Lock()
	buf = append(buf[:0], in.msgs...)
	in.msgs = in.msgs[:0]
	seq := in.seq
	in.mu.Unlock()
	return buf, seq
}

// waitChange blocks until the inbox seq advances past seen.
func (in *nmInbox) waitChange(seen uint64) {
	in.mu.Lock()
	for in.seq == seen {
		in.cond.Wait()
	}
	in.mu.Unlock()
}

// runLive runs every rank on its own goroutine until StopAt.
//
// The null-message kernel has no global rounds, so checkpoints use
// simulated-time epochs (CkptHook.EveryTime): the run is split into
// segments ending at epoch multiples, every rank quiesces at the segment
// boundary exactly as it would at StopAt, and the boundary is a sound
// snapshot point — a rank only terminates a segment once its EIT
// reaches the boundary, so channel promises guarantee every undelivered
// message holds only events at or after it.
func (x *nmRun) runLive() error {
	var every sim.Time
	if hook := x.m.Ckpt; hook != nil && hook.Save != nil {
		every = hook.EveryTime
	}
	for {
		x.stopAt = x.m.StopAt
		if every > 0 {
			x.stopAt = min(x.stopAt, sim.Time(x.epoch+1)*every)
		}
		var wg sync.WaitGroup
		for _, r := range x.ranks {
			wg.Add(1)
			go func(r *nmRank) {
				defer wg.Done()
				var buf []nmMsg
				r.sw.Start()
				for r.done = false; !r.done; {
					buf, r.seen = r.inbox.take(buf)
					x.step(r, buf)
				}
			}(r)
		}
		wg.Wait()
		if x.stopAt >= x.m.StopAt {
			return nil
		}
		x.epoch++
		if err := x.saveCkpt(); err != nil {
			return err
		}
	}
}
