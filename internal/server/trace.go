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

// spanLog is a run's stored span log: the head events verbatim, the
// rolling tail, and how many events fell out between the two. It is
// rendered only when read: a finished run keeps its log, not its lines.
type spanLog struct {
	head    []spanEvent // admission and early quanta
	tail    []spanEvent // rolling window of the most recent events
	dropped int
}

// spanLocked records one lifecycle event; call under s.mu.
func (r *run) spanLocked(format string, args ...any) {
	ev := spanEvent{at: time.Since(r.born), msg: fmt.Sprintf(format, args...)}
	l := &r.spans
	if len(l.head) < maxSpanHead {
		l.head = append(l.head, ev)
		return
	}
	if len(l.tail) >= maxSpanTail {
		copy(l.tail, l.tail[1:])
		l.tail = l.tail[:maxSpanTail-1]
		l.dropped++
	}
	l.tail = append(l.tail, ev)
}

// lines renders the span log as "+12.3ms event" lines. A run's log is
// read under s.mu; a finished run's is never written again.
func (l *spanLog) lines() []string {
	if len(l.head) == 0 {
		return nil
	}
	line := func(ev spanEvent) string {
		return fmt.Sprintf("+%.1fms %s", float64(ev.at.Microseconds())/1000, ev.msg)
	}
	lines := make([]string, 0, len(l.head)+1+len(l.tail))
	for _, ev := range l.head {
		lines = append(lines, line(ev))
	}
	if l.dropped > 0 {
		lines = append(lines, fmt.Sprintf("... (+%d events elided)", l.dropped))
	}
	for _, ev := range l.tail {
		lines = append(lines, line(ev))
	}
	return lines
}
