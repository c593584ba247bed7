package cvd

import (
	"paradice/internal/perf"
	"paradice/internal/sim"
)

// Mode selects the CVD transport: inter-VM interrupts (default), the
// polling mode for high-performance applications (§5.1), in which both
// sides poll the shared page for 200 µs before going to sleep to wait for
// interrupts, or the adaptive mode, which switches NAPI-style between the
// two per channel based on the observed arrival rate — poll under load,
// re-arm interrupts when idle.
type Mode int

// Transport modes.
const (
	Interrupts Mode = iota
	Polling
	Adaptive
)

func (m Mode) String() string {
	switch m {
	case Polling:
		return "polling"
	case Adaptive:
		return "adaptive"
	}
	return "interrupts"
}

// Transport is one CVD channel's transport policy: how its frontend posts
// and waits, and how every backend the channel ever gets — the first one
// built by Connect, a Reconnect replacement, a CompleteHandover successor —
// picks up, batches and moves data. The frontend holds the resolved value
// and each backend is built from it, so a successor can never run a
// different policy than its predecessor. The zero value is the paper's
// behavior: interrupts, the 200 µs poll window, per-request assisted
// copies, one IRQ per post, no deadline and no admission control.
type Transport struct {
	// Mode selects interrupts, polling or adaptive transport.
	Mode Mode
	// PollWindow is how long each side busy-polls the shared page before
	// sleeping, in polling (or adaptive poll-stance) mode. Zero selects the
	// paper's empirically chosen perf.PollWindow, 200 µs (§5.1); the
	// ablation experiment sweeps it.
	PollWindow sim.Duration
	// RequestDeadline bounds every forwarded operation's wait for its
	// response; a request that outlives it fails with ETIMEDOUT. Zero means
	// wait forever (the paper's behavior). Driver-VM supervision sets this
	// so a guest blocked behind a dead backend unblocks on its own.
	RequestDeadline sim.Duration
	// MapCache enables the bulk-transfer fast path: read/write data buffers
	// of at least MapThreshold bytes get long-lived bulk grants, and the
	// backend maps them into the driver VM once (validated through the grant
	// table) and reuses the mapping across requests to the same file. Cached
	// mappings are invalidated deterministically on grant revoke, file
	// release, reconnect, and driver-VM restart; misusing one faults exactly
	// as a fresh map would.
	MapCache bool
	// MapThreshold is the minimum transfer size, in bytes, routed through
	// the map cache; smaller transfers keep the per-request assisted copy,
	// which the cost model says wins below ~2 KB at small reuse counts (see
	// the "Bulk transfer" section of EXPERIMENTS.md). Zero selects
	// DefaultMapThreshold. Ignored unless MapCache is set.
	MapThreshold int
	// CoalesceWindow batches doorbells in interrupt mode: request slots
	// posted within the window of the first share its inter-VM IRQ — one
	// CostInterVMIRQ per batch instead of per post — at the price of up to
	// the window in added latency per request. Zero disables coalescing.
	// The polling path and watchdog heartbeats are unaffected.
	CoalesceWindow sim.Duration
	// BatchSize turns the coalescing window into a size+deadline batcher:
	// the frontend flushes a multi-entry submission descriptor as soon as
	// BatchSize slots are pending (instead of waiting out the window), and
	// the backend mirrors it on the completion side — up to BatchSize
	// responses share one response IRQ, flushed after at most
	// CoalesceWindow. Requires CoalesceWindow > 0 to have any effect; zero
	// keeps pure deadline-driven flushing.
	BatchSize int
	// GrantBatch batches grant hypercalls: the frontend declares a file
	// operation's whole grant vector in one hypervisor crossing (the first
	// entry costs CostGrantDeclare, each further entry CostGrantEntry), and
	// the hypervisor's grant-validation cache primed by that crossing lets
	// the backend's memory operations validate against the cached vector at
	// CostTLBHit instead of re-scanning the shared page.
	GrantBatch bool
	// Admission maps a QoS class (kernel.Task.QoS) to the ring occupancy at
	// which that class stops being admitted: once the ring holds that many
	// in-flight requests, further requests from the class fail fast with
	// EAGAIN instead of queueing. Classes absent from the map are admitted
	// until the ring itself is full (EBUSY). nil disables admission control.
	Admission map[uint8]int
}

// DefaultMapThreshold is the transfer size at which the grant-map cache
// starts paying off against per-request assisted copies, derived from the
// cost model (CostMapPage amortization vs CostCopyPerPage/CostCopyPerKB at
// small reuse counts).
const DefaultMapThreshold = 2048

// resolved returns t with its zero-value defaults filled in.
func (t Transport) resolved() Transport {
	if t.PollWindow == 0 {
		t.PollWindow = perf.PollWindow
	}
	if t.MapThreshold <= 0 {
		t.MapThreshold = DefaultMapThreshold
	}
	return t
}

// pollStance reports whether a side whose adaptive stance is poll (or not)
// takes the polled path now: always in static Polling, in Adaptive while
// the stance is poll, never in Interrupts.
func (t *Transport) pollStance(poll bool) bool {
	return t.Mode == Polling || (t.Mode == Adaptive && poll)
}
