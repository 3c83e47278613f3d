package server

import (
	"fmt"
	"time"
)

// The run-lifecycle tracer: every admitted run carries a bounded span
// log — timestamped one-line events from submission through quanta,
// re-admission and completion — served by the admin /runs endpoint.
// Appends and reads both happen under the server lock (RunsSnapshot
// reads concurrently with workers appending), and the log is bounded so
// a million-quantum run costs a fixed few KB: once full, further events
// are counted, not stored, and the render says so.

// maxSpanHead and maxSpanTail bound a run's stored span log: the first
// maxSpanHead events (admission and the early quanta) are kept verbatim,
// and after that a rolling window of the maxSpanTail most recent events
// — so a thousand-quantum run still shows how it started AND how it
// ended (completion), with the repetitive middle elided.
const (
	maxSpanHead = 28
	maxSpanTail = 8
)

type spanEvent struct {
	at  time.Duration // since the run's born instant
	msg string
}

// spanLocked records one lifecycle event; call under s.mu.
func (r *run) spanLocked(format string, args ...any) {
	ev := spanEvent{at: time.Since(r.born), msg: fmt.Sprintf(format, args...)}
	if len(r.trace) < maxSpanHead {
		r.trace = append(r.trace, ev)
		return
	}
	if len(r.traceTail) >= maxSpanTail {
		copy(r.traceTail, r.traceTail[1:])
		r.traceTail = r.traceTail[:maxSpanTail-1]
		r.traceDropped++
	}
	r.traceTail = append(r.traceTail, ev)
}

// traceLinesLocked renders the span log as "+12.3ms event" lines; call
// under s.mu.
func (r *run) traceLinesLocked() []string {
	if len(r.trace) == 0 {
		return nil
	}
	line := func(ev spanEvent) string {
		return fmt.Sprintf("+%.1fms %s", float64(ev.at.Microseconds())/1000, ev.msg)
	}
	lines := make([]string, 0, len(r.trace)+1+len(r.traceTail))
	for _, ev := range r.trace {
		lines = append(lines, line(ev))
	}
	if r.traceDropped > 0 {
		lines = append(lines, fmt.Sprintf("... (+%d events elided)", r.traceDropped))
	}
	for _, ev := range r.traceTail {
		lines = append(lines, line(ev))
	}
	return lines
}
