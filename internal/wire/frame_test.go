package wire

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func sampleFrames() []Frame {
	return []Frame{
		Submit{Tenant: "acme", ID: "run-1", DeadlineMS: 5000, Scenario: []byte("scenario x\ntopo ring 8 rip\nhorizon 100\n")},
		Submit{Tenant: "t", ID: "r", Scenario: []byte{}},
		Wait{Tenant: "acme", ID: "run-1"},
		Status{ID: "run-1", Phase: PhasePreempted, Step: 1200, Horizon: 4096, CellsComputed: 99999},
		Status{ID: "run-2", Phase: PhaseRunning, Step: 64, Horizon: 600, CellsComputed: 512},
		Result{ID: "run-1", Steps: 812, ConvergedAt: 810, CellsComputed: 12345, Hash: 0xdeadbeefcafe, Table: "0 | 1 2 3\n"},
		Result{ID: "r2", Steps: 4096, ConvergedAt: -1, CellsComputed: 7, Hash: 1},
		ErrorFrame{ID: "run-1", Code: CodeOverloaded, RetryAfterMS: 250, Msg: "queue full"},
		ErrorFrame{Code: CodeBadRequest, Msg: "unparseable scenario"},
		ErrorFrame{ID: "x", Code: CodeDraining, RetryAfterMS: 1000, Msg: "server draining"},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for _, f := range sampleFrames() {
		b, err := EncodeFrame(f)
		if err != nil {
			t.Fatalf("encode %+v: %v", f, err)
		}
		got, err := DecodeFrame(b)
		if err != nil {
			t.Fatalf("decode %+v: %v", f, err)
		}
		// Decode materialises empty blobs as non-nil; normalise for the
		// comparison.
		if s, ok := f.(Submit); ok && s.Scenario == nil {
			s.Scenario = []byte{}
			f = s
		}
		if !reflect.DeepEqual(f, got) {
			t.Fatalf("round trip: sent %+v got %+v", f, got)
		}
	}
}

func TestFrameDecodeRejectsHostileInput(t *testing.T) {
	// Truncations of every valid frame must all fail cleanly.
	for _, f := range sampleFrames() {
		b, err := EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(b); cut++ {
			if _, err := DecodeFrame(b[:cut]); err == nil {
				t.Fatalf("decode of %d/%d-byte prefix of %T succeeded", cut, len(b), f)
			}
		}
		// Trailing garbage is rejected too — a frame is exactly one frame.
		if _, err := DecodeFrame(append(append([]byte(nil), b...), 0xff)); err == nil {
			t.Fatalf("decode of %T with trailing byte succeeded", f)
		}
	}
	if _, err := DecodeFrame(nil); err == nil {
		t.Fatal("decode of empty input succeeded")
	}
	if _, err := DecodeFrame([]byte{99}); err == nil {
		t.Fatal("decode of unknown kind succeeded")
	}
	// A stale peer that appends a span log (u16 length + text) after the
	// Status counters is refused with the trailing-bytes error, not misread.
	old, err := EncodeFrame(Status{ID: "r", Phase: PhaseRunning, Step: 51, Horizon: 300, CellsComputed: 9})
	if err != nil {
		t.Fatal(err)
	}
	old = appendName(old, "+0.0ms admitted (queued)\n")
	if _, err := DecodeFrame(old); err == nil || !strings.Contains(err.Error(), "trailing bytes") {
		t.Fatalf("Status frame with appended trace: got %v, want the trailing-bytes error", err)
	}
	// A length field pointing past the caps must fail before allocating.
	huge := []byte{byte(FrameSubmit), 0xff, 0xff}
	if _, err := DecodeFrame(huge); err == nil {
		t.Fatal("decode of over-cap tenant length succeeded")
	}
}

func TestFrameEncodeEnforcesCaps(t *testing.T) {
	if _, err := EncodeFrame(Submit{Tenant: strings.Repeat("t", maxNameLen+1), ID: "r"}); err == nil {
		t.Fatal("oversized tenant encoded")
	}
	if _, err := EncodeFrame(Submit{Tenant: "t", ID: "r", Scenario: bytes.Repeat([]byte{'x'}, maxScenarioLen+1)}); err == nil {
		t.Fatal("oversized scenario encoded")
	}
	if _, err := EncodeFrame(Result{ID: "r", Table: strings.Repeat("x", maxTableLen+1)}); err == nil {
		t.Fatal("oversized table encoded")
	}
	// Long messages are truncated, not refused — an error about an error
	// should never itself fail.
	b, err := EncodeFrame(ErrorFrame{ID: "r", Code: CodeInternal, Msg: strings.Repeat("m", maxMsgLen+500)})
	if err != nil {
		t.Fatalf("long error message refused: %v", err)
	}
	f, err := DecodeFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.(ErrorFrame).Msg; len(got) != maxMsgLen {
		t.Fatalf("error message truncated to %d, want %d", len(got), maxMsgLen)
	}
}

func TestErrorCodeSemantics(t *testing.T) {
	for _, c := range []ErrorCode{CodeOverloaded, CodeDraining} {
		if !c.Retriable() {
			t.Fatalf("%v must be retriable", c)
		}
	}
	for _, c := range []ErrorCode{CodeBadRequest, CodeDeadline, CodeUnknownRun, CodeInternal} {
		if c.Retriable() {
			t.Fatalf("%v must not be retriable", c)
		}
	}
	e := ErrorFrame{Code: CodeOverloaded, RetryAfterMS: 100, Msg: "q"}
	if !strings.Contains(e.Error(), "retry after 100ms") {
		t.Fatalf("error text lacks the retry hint: %q", e.Error())
	}
}

func FuzzFrame(f *testing.F) {
	for _, fr := range sampleFrames() {
		b, err := EncodeFrame(fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeFrame(data)
		if err != nil {
			return // rejected cleanly
		}
		// Anything that decodes must re-encode and decode to the same
		// frame (encode may legitimately fail only for fields Decode's
		// caps would never have admitted — there are none, so it must
		// succeed).
		b2, err := EncodeFrame(fr)
		if err != nil {
			t.Fatalf("re-encode of decoded frame failed: %v\nframe: %+v", err, fr)
		}
		fr2, err := DecodeFrame(b2)
		if err != nil {
			t.Fatalf("decode of re-encode failed: %v", err)
		}
		if !reflect.DeepEqual(fr, fr2) {
			t.Fatalf("decode/encode not idempotent: %+v vs %+v", fr, fr2)
		}
	})
}
