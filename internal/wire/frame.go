package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// Service protocol frames: the request/response/stream vocabulary of the
// dbfsimd simulation service. A client submits a scenario under a tenant
// name, receives streamed Status frames while the run is queued, running
// and preempted, and finally a Result (or an ErrorFrame). Every frame is
// one length-prefixed transport message; this file only defines the
// payload bytes.
//
// Layout (big-endian): u8 kind, then the frame's fields — strings as
// u16 length + bytes, blobs as u32 length + bytes, integers fixed-width.
// Every decode is bounds-checked against hard caps, so a hostile peer
// gets a clean error, never a panic or an unbounded allocation.

// FrameKind tags a service frame.
type FrameKind uint8

const (
	// FrameSubmit (client → server) requests a scenario run.
	FrameSubmit FrameKind = 1
	// FrameWait (client → server) re-subscribes to a run's outcome, e.g.
	// after a reconnect or a daemon restart.
	FrameWait FrameKind = 2
	// FrameStatus (server → client, streamed) reports run progress.
	FrameStatus FrameKind = 3
	// FrameResult (server → client, terminal) reports a finished run.
	FrameResult FrameKind = 4
	// FrameError (server → client, terminal) reports a failed or shed
	// request; retriable codes carry a retry-after hint.
	FrameError FrameKind = 5
)

// ErrorCode classifies an ErrorFrame.
type ErrorCode uint8

const (
	// CodeBadRequest: the request itself is malformed (unparseable or
	// unserviceable scenario, bad tenant/id). Not retriable.
	CodeBadRequest ErrorCode = 1
	// CodeOverloaded: the tenant's admission quota (queue depth or
	// in-flight cap) is exhausted. Retriable after RetryAfterMS.
	CodeOverloaded ErrorCode = 2
	// CodeDraining: the server is shutting down; in-flight runs are being
	// checkpointed. Retriable against the restarted server.
	CodeDraining ErrorCode = 3
	// CodeDeadline: the run exceeded its submitted deadline and was
	// cancelled. Not retriable (resubmit with a larger deadline).
	CodeDeadline ErrorCode = 4
	// CodeUnknownRun: Wait named a run the server has no record of.
	CodeUnknownRun ErrorCode = 5
	// CodeInternal: the run failed inside the engine. Not retriable.
	CodeInternal ErrorCode = 6
)

// Retriable reports whether the same request can simply be resent after
// the hinted delay — the load-shedding codes, where the request was
// refused without being looked at, not failed.
func (c ErrorCode) Retriable() bool {
	return c == CodeOverloaded || c == CodeDraining
}

// String renders the code for logs and error text.
func (c ErrorCode) String() string {
	switch c {
	case CodeBadRequest:
		return "bad-request"
	case CodeOverloaded:
		return "overloaded"
	case CodeDraining:
		return "draining"
	case CodeDeadline:
		return "deadline"
	case CodeUnknownRun:
		return "unknown-run"
	case CodeInternal:
		return "internal"
	}
	return fmt.Sprintf("code(%d)", uint8(c))
}

// RunPhase is the lifecycle position a Status frame reports.
type RunPhase uint8

const (
	// PhaseQueued: admitted, waiting for a worker slot.
	PhaseQueued RunPhase = 1
	// PhaseRunning: a worker is advancing the run.
	PhaseRunning RunPhase = 2
	// PhasePreempted: paused at a quantum boundary because the scheduler
	// gave its worker to another run; will be rescheduled. A run that
	// nobody waits behind keeps its worker and never reports this.
	PhasePreempted RunPhase = 3
	// PhaseResumed: re-admitted from the spool after a restart and
	// waiting for its first quantum; it replays from step 0.
	PhaseResumed RunPhase = 4
)

// String renders the phase for logs and status lines.
func (p RunPhase) String() string {
	switch p {
	case PhaseQueued:
		return "queued"
	case PhaseRunning:
		return "running"
	case PhasePreempted:
		return "preempted"
	case PhaseResumed:
		return "resumed"
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// Frame caps. Names and ids are short tokens; the scenario blob is
// bounded by the scenario package's own file cap; tables are a few KiB
// of rendered text.
const (
	maxNameLen     = 128
	maxMsgLen      = 1 << 10
	maxScenarioLen = 1 << 16
	maxTableLen    = 1 << 16
)

// Frame is one service protocol frame.
type Frame interface {
	// Kind tags the frame on the wire.
	Kind() FrameKind
	appendTo(out []byte) ([]byte, error)
}

// Submit requests a run of Scenario (scenario text format) under
// Tenant. ID is the client-chosen run identifier, unique per tenant;
// DeadlineMS, when > 0, is a wall-clock budget after admission — a run
// that has not finished DeadlineMS after submission is cancelled with
// CodeDeadline.
type Submit struct {
	Tenant, ID string
	DeadlineMS int64
	Scenario   []byte
}

// Wait re-subscribes to the outcome of tenant/id: the server replies
// with the stored Result if the run already finished, streams Status
// frames if it is still in flight, or returns CodeUnknownRun.
type Wait struct {
	Tenant, ID string
}

// Status reports progress: the run's lifecycle phase, the last
// completed engine step against its horizon, and the work counter — the
// convergence-stats stream that keeps a throttled client informed
// rather than timing out blind. The run's lifecycle span log is served
// by the admin /runs endpoint, not carried here.
type Status struct {
	ID            string
	Phase         RunPhase
	Step, Horizon int64
	CellsComputed int64
}

// Result reports a finished run: the certified convergence step (−1 if
// the horizon was reached without certification), the work counters,
// the FNV-64a fingerprint of the final table (the bit-identity witness
// resume tests compare), and the rendered table for small instances.
type Result struct {
	ID            string
	Steps         int64
	ConvergedAt   int64
	CellsComputed int64
	Hash          uint64
	Table         string
}

// ErrorFrame reports a refused or failed request. RetryAfterMS is a
// backoff hint, meaningful when Code.Retriable().
type ErrorFrame struct {
	ID           string
	Code         ErrorCode
	RetryAfterMS int64
	Msg          string
}

func (Submit) Kind() FrameKind     { return FrameSubmit }
func (Wait) Kind() FrameKind       { return FrameWait }
func (Status) Kind() FrameKind     { return FrameStatus }
func (Result) Kind() FrameKind     { return FrameResult }
func (ErrorFrame) Kind() FrameKind { return FrameError }

// Error makes an ErrorFrame usable as a Go error on the client side.
func (e ErrorFrame) Error() string {
	if e.RetryAfterMS > 0 {
		return fmt.Sprintf("wire: %s: %s (retry after %dms)", e.Code, e.Msg, e.RetryAfterMS)
	}
	return fmt.Sprintf("wire: %s: %s", e.Code, e.Msg)
}

// EncodeFrame renders a frame, enforcing the same caps Decode does so a
// frame that encodes always decodes.
func EncodeFrame(f Frame) ([]byte, error) {
	b, err := f.appendTo([]byte{byte(f.Kind())})
	if err == nil {
		countEncoded(f.Kind())
	}
	return b, err
}

func (s Submit) appendTo(out []byte) ([]byte, error) {
	if err := checkName("tenant", s.Tenant); err != nil {
		return nil, err
	}
	if err := checkName("id", s.ID); err != nil {
		return nil, err
	}
	if len(s.Scenario) > maxScenarioLen {
		return nil, fmt.Errorf("wire: %d-byte scenario exceeds %d", len(s.Scenario), maxScenarioLen)
	}
	out = appendName(out, s.Tenant)
	out = appendName(out, s.ID)
	out = binary.BigEndian.AppendUint64(out, uint64(s.DeadlineMS))
	out = binary.BigEndian.AppendUint32(out, uint32(len(s.Scenario)))
	return append(out, s.Scenario...), nil
}

func (w Wait) appendTo(out []byte) ([]byte, error) {
	if err := checkName("tenant", w.Tenant); err != nil {
		return nil, err
	}
	if err := checkName("id", w.ID); err != nil {
		return nil, err
	}
	out = appendName(out, w.Tenant)
	return appendName(out, w.ID), nil
}

func (s Status) appendTo(out []byte) ([]byte, error) {
	if err := checkName("id", s.ID); err != nil {
		return nil, err
	}
	out = appendName(out, s.ID)
	out = append(out, byte(s.Phase))
	out = binary.BigEndian.AppendUint64(out, uint64(s.Step))
	out = binary.BigEndian.AppendUint64(out, uint64(s.Horizon))
	return binary.BigEndian.AppendUint64(out, uint64(s.CellsComputed)), nil
}

func (r Result) appendTo(out []byte) ([]byte, error) {
	if err := checkName("id", r.ID); err != nil {
		return nil, err
	}
	if len(r.Table) > maxTableLen {
		return nil, fmt.Errorf("wire: %d-byte table exceeds %d", len(r.Table), maxTableLen)
	}
	out = appendName(out, r.ID)
	out = binary.BigEndian.AppendUint64(out, uint64(r.Steps))
	out = binary.BigEndian.AppendUint64(out, uint64(r.ConvergedAt))
	out = binary.BigEndian.AppendUint64(out, uint64(r.CellsComputed))
	out = binary.BigEndian.AppendUint64(out, r.Hash)
	out = binary.BigEndian.AppendUint32(out, uint32(len(r.Table)))
	return append(out, r.Table...), nil
}

func (e ErrorFrame) appendTo(out []byte) ([]byte, error) {
	// The id may be empty: admission errors can predate a parsed id.
	if len(e.ID) > maxNameLen {
		return nil, fmt.Errorf("wire: id too long")
	}
	if len(e.Msg) > maxMsgLen {
		e.Msg = e.Msg[:maxMsgLen]
	}
	out = appendName(out, e.ID)
	out = append(out, byte(e.Code))
	out = binary.BigEndian.AppendUint64(out, uint64(e.RetryAfterMS))
	out = appendName(out, e.Msg)
	return out, nil
}

// errFrameField is the fault DecodeFrame's cursor sticks.
var errFrameField = errors.New("wire: truncated or over-cap frame field")

// DecodeFrame parses one frame. Unknown kinds and over-cap lengths are
// clean errors.
func DecodeFrame(data []byte) (f Frame, err error) {
	if len(data) < 1 {
		countDecoded(0, ErrTruncated)
		return nil, ErrTruncated
	}
	defer func() { countDecoded(FrameKind(data[0]), err) }()
	d := NewCursor(data[1:], errFrameField)
	switch FrameKind(data[0]) {
	case FrameSubmit:
		f = Submit{Tenant: d.Str(maxNameLen), ID: d.Str(maxNameLen), DeadlineMS: d.I64(),
			Scenario: bytes.Clone(d.Bytes(maxScenarioLen))}
	case FrameWait:
		f = Wait{Tenant: d.Str(maxNameLen), ID: d.Str(maxNameLen)}
	case FrameStatus:
		f = Status{ID: d.Str(maxNameLen), Phase: RunPhase(d.U8()),
			Step: d.I64(), Horizon: d.I64(), CellsComputed: d.I64()}
	case FrameResult:
		f = Result{ID: d.Str(maxNameLen), Steps: d.I64(), ConvergedAt: d.I64(),
			CellsComputed: d.I64(), Hash: d.U64(), Table: string(d.Bytes(maxTableLen))}
	case FrameError:
		f = ErrorFrame{ID: d.Str(maxNameLen), Code: ErrorCode(d.U8()),
			RetryAfterMS: d.I64(), Msg: d.Str(maxMsgLen)}
	default:
		return nil, fmt.Errorf("wire: unknown frame kind %d", data[0])
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	if d.Len() != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after %v frame", d.Len(), FrameKind(data[0]))
	}
	return f, nil
}

func checkName(what, s string) error {
	if len(s) > maxNameLen {
		return fmt.Errorf("wire: %s of %d bytes exceeds %d", what, len(s), maxNameLen)
	}
	return nil
}

func appendName(out []byte, s string) []byte {
	out = binary.BigEndian.AppendUint16(out, uint16(len(s)))
	return append(out, s...)
}
