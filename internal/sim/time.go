// Package sim provides a deterministic discrete-event simulation kernel.
//
// Everything in the Paradice reproduction that has a temporal dimension —
// inter-VM interrupts, device DMA completion, GPU command execution, polling
// loops — runs on this kernel. There is no wall clock anywhere: simulated
// time advances only when a process sleeps or an event fires, so identical
// inputs always produce identical timings.
//
// The kernel follows the classic process-interaction style (as in SimPy):
// processes run one at a time under strict hand-off control of the
// scheduler, and yield by sleeping, waiting on events, or acquiring
// resources. Each process runs on a coroutine (iter.Pull) taken from a pool,
// so a hand-off is a coroutine switch rather than a goroutine wake-up, and a
// process whose own resume is the next calendar entry continues without any
// switch.
package sim

import "fmt"

// Time is an absolute simulated time in nanoseconds since simulation start.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration int64

// Common durations, mirroring time.Duration conventions.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u (t - u).
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

// Microseconds returns the duration as a floating-point number of microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / 1e3 }

func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/1e6)
	case d >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(d)/1e3)
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

func (t Time) String() string { return Duration(t).String() }
