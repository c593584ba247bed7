package cvd

import (
	"fmt"

	"paradice/internal/kernel"
	"paradice/internal/sim"
	"paradice/internal/trace"
)

// Pool is a driver VM's shared backend worker pool: a bounded set of handler
// threads serving every CVD channel attached to that driver VM. Without a
// pool each forwarded operation gets its own thread (spawnHandler), which is
// faithful to the paper but lets one hot guest consume unbounded driver-VM
// threads; with a pool, per-channel dispatchers enqueue operations into
// per-channel FIFO queues and the workers drain them under deficit
// round-robin, so a guest at open-loop overload gets at most its round share
// of workers while a quiet guest's operations are picked up within one
// quantum cycle.
//
// Ordering contract: operations of one channel are *started* in post order
// (the queue is FIFO and workers dequeue under a single scheduler token), the
// same guarantee the thread-per-op path gives. Operations of one channel may
// still complete out of order once started — that is the concurrency the
// paper's handler threads exist for.
//
// Workers are named "cvd-op-worker-<n>": the "cvd-op-" prefix keeps them
// inside the supervision contract — a panic in a pooled handler is consumed
// by the driver-VM supervisor exactly like a panic in a dedicated handler
// thread.
type Pool struct {
	driverK  *kernel.Kernel
	workers  int
	quantum  int
	doorbell *sim.Event
	stopped  bool

	channels []*poolChan
	rr       int // deficit-round-robin cursor into channels

	// onServe, when set, observes every dequeue in service order (test hook
	// for the per-channel FIFO contract). Runs in worker context before the
	// operation executes; must not block.
	onServe func(b *Backend, seq uint32)

	// Stats observable by tests and the bench harness.
	Enqueued uint64 // operations handed to the pool
	Served   uint64 // operations a worker picked up
	Dropped  uint64 // stale operations discarded (channel left or ring epoch moved)
	MaxDepth int    // high-water mark of total queued operations
}

// poolChan is one channel's slice of the pool: its FIFO backlog and its
// deficit-round-robin account.
type poolChan struct {
	b       *Backend
	q       []request
	deficit int
}

// NewPool creates a worker pool of the given size on the driver VM kernel
// and starts its workers. quantum is the deficit-round-robin quantum — how
// many consecutive operations one channel may be served before the cursor
// moves on; values < 1 mean 1, strict per-operation round-robin.
func NewPool(driverK *kernel.Kernel, workers, quantum int) *Pool {
	if workers < 1 {
		workers = 1
	}
	if quantum < 1 {
		quantum = 1
	}
	pl := &Pool{
		driverK:  driverK,
		workers:  workers,
		quantum:  quantum,
		doorbell: driverK.Env.NewEvent("cvd-pool-" + driverK.Name),
	}
	for i := 0; i < workers; i++ {
		i := i
		driverK.Env.Spawn(fmt.Sprintf("cvd-op-worker-%d@%s", i, driverK.Name), func(p *sim.Proc) {
			pl.worker(p)
		})
	}
	return pl
}

// Workers returns the pool size.
func (pl *Pool) Workers() int { return pl.workers }

// Join attaches a backend's channel to the pool. Channels are served in join
// order by the round-robin cursor. The backend's dispatcher starts routing
// operations here instead of spawning per-op threads.
func (pl *Pool) Join(b *Backend) {
	for _, c := range pl.channels {
		if c.b == b {
			return
		}
	}
	pl.channels = append(pl.channels, &poolChan{b: b})
	b.pool = pl
}

// Leave detaches a backend's channel, discarding its backlog — called on
// backend Stop/death, when the ring's restart epoch has moved on and any
// queued operations will be failed with EREMOTE by Reconnect, not answered.
func (pl *Pool) Leave(b *Backend) {
	for i, c := range pl.channels {
		if c.b == b {
			pl.Dropped += uint64(len(c.q))
			pl.channels = append(pl.channels[:i], pl.channels[i+1:]...)
			if pl.rr > i {
				pl.rr--
			}
			if len(pl.channels) > 0 {
				pl.rr %= len(pl.channels)
			} else {
				pl.rr = 0
			}
			break
		}
	}
	if b.pool == pl {
		b.pool = nil
	}
}

// Stop terminates the workers. Queued operations are dropped; as with
// backend Stop, in-flight ones finish but discard their ring writes if the
// epoch moved.
func (pl *Pool) Stop() {
	pl.stopped = true
	pl.doorbell.Trigger()
}

// enqueue appends one decoded operation to the backend's channel queue and
// wakes the workers. Called from the channel's dispatcher.
func (pl *Pool) enqueue(b *Backend, req request) {
	for _, c := range pl.channels {
		if c.b == b {
			c.q = append(c.q, req)
			pl.Enqueued++
			if d := pl.depth(); d > pl.MaxDepth {
				pl.MaxDepth = d
			}
			trace.Get(pl.driverK.Env).Add("cvd.pool.enqueued", 1)
			pl.doorbell.Trigger()
			return
		}
	}
	// Channel never joined (or already left): the operation belongs to a
	// ring generation this pool will not serve.
	pl.Dropped++
}

func (pl *Pool) depth() int {
	n := 0
	for _, c := range pl.channels {
		n += len(c.q)
	}
	return n
}

// next pops the next operation under deficit round-robin, or reports none
// pending. A channel's deficit refills with the quantum when the cursor
// reaches it with work queued, and the cursor stays until the deficit or the
// queue runs out — so one channel gets at most quantum consecutive services
// while others wait, and an empty channel forfeits its turn (and any saved
// deficit) immediately.
func (pl *Pool) next() (*Backend, request, bool) {
	n := len(pl.channels)
	for scanned := 0; scanned < n; {
		c := pl.channels[pl.rr]
		if len(c.q) == 0 {
			c.deficit = 0
			pl.rr = (pl.rr + 1) % n
			scanned++
			continue
		}
		if c.deficit == 0 {
			c.deficit = pl.quantum
		}
		req := c.q[0]
		c.q = c.q[1:]
		c.deficit--
		if c.deficit == 0 || len(c.q) == 0 {
			c.deficit = 0
			pl.rr = (pl.rr + 1) % n
		}
		return c.b, req, true
	}
	return nil, request{}, false
}

// worker is one pooled handler thread: dequeue under the fairness policy,
// execute via the owning backend's handle, sleep on the shared doorbell when
// the queues drain (with the same reset-then-recheck pattern the dispatcher
// uses, so an enqueue racing the sleep is never lost).
func (pl *Pool) worker(p *sim.Proc) {
	for {
		if pl.stopped {
			return
		}
		b, req, ok := pl.next()
		if !ok {
			pl.doorbell.Reset()
			if pl.stopped {
				return
			}
			if pl.depth() > 0 {
				continue
			}
			p.Wait(pl.doorbell)
			continue
		}
		if !b.ringCurrent() {
			// The channel died between enqueue and pickup; its slots now
			// belong to a successor backend.
			pl.Dropped++
			continue
		}
		pl.Served++
		trace.Get(pl.driverK.Env).Add("cvd.pool.served", 1)
		if pl.onServe != nil {
			pl.onServe(b, req.seq)
		}
		b.handle(p, req)
	}
}
