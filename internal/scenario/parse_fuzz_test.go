package scenario

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// Parse is the service's untrusted-input surface: whatever a client
// sends must either parse into a scenario that Validate accepts, or
// fail with a clean error — never panic, never allocate proportionally
// to a hostile length field.

// hugeEvents renders count "at" lines, each at a distinct step.
func hugeEvents(count int) []byte {
	var b strings.Builder
	b.WriteString("scenario big\ntopo ring 8 rip\nhorizon 4096\n")
	for i := 0; i < count; i++ {
		fmt.Fprintf(&b, "at %d linkdown 0 1\n", i+1)
	}
	return []byte(b.String())
}

func TestParseCaps(t *testing.T) {
	if _, err := Parse(bytes.Repeat([]byte{'#'}, MaxFileSize+1)); err == nil {
		t.Fatal("oversized input accepted")
	}
	if _, err := Parse(bytes.Repeat([]byte{'#'}, MaxFileSize)); err == nil {
		// All comments: parse proceeds and fails only on the missing
		// horizon — the size alone is fine at exactly the cap.
	} else if !strings.Contains(err.Error(), "horizon") {
		t.Fatalf("cap-sized comment input failed unexpectedly: %v", err)
	}
	if _, err := Parse(hugeEvents(maxEvents)); err != nil {
		t.Fatalf("%d events (the cap) rejected: %v", maxEvents, err)
	}
	if _, err := Parse(hugeEvents(maxEvents + 1)); err == nil || !strings.Contains(err.Error(), "events") {
		t.Fatalf("event-count cap not enforced at parse time: %v", err)
	}
	longPath := "scenario p\ngadget wedgie\nhorizon 10\nat 5 rank 3 " + strings.TrimSpace(strings.Repeat("1 ", maxNodes+2)) + "\n"
	if _, err := Parse([]byte(longPath)); err == nil || !strings.Contains(err.Error(), "path") {
		t.Fatalf("rank-path cap not enforced at parse time: %v", err)
	}
	for _, bad := range []string{
		"scenario h\ntopo ring 8 rip\nhorizon 999999\n",              // horizon over cap
		"scenario n\ntopo ring 99999 rip\nhorizon 10\n",              // node count over cap
		"scenario i\ntopo ring 8 rip\nhorizon 10\nat 5 restart 64\n", // node index over cap
		"scenario w\ntopo ring 8 rip\nhorizon 10\nat 5 weight 9999999 0 1\n",
	} {
		if _, err := Parse([]byte(bad)); err == nil {
			t.Fatalf("accepted out-of-range input:\n%s", bad)
		}
	}
}

func FuzzParse(f *testing.F) {
	// Valid scenarios of both families, plus seeds sitting ON each cap —
	// the fuzzer mutates from these into the over-cap neighbourhoods.
	f.Add([]byte(topoRunnerScenario))
	f.Add([]byte(gadgetRunnerScenario))
	f.Add([]byte("scenario s\ntopo ring 64 shortest\nhorizon 4096\nat 4096 linkdown 62 63\n"))
	f.Add([]byte("scenario s\ngadget wedgie\nstart stable 0\nhorizon 200\nat 20 crash 1\nat 30 recover 1\n"))
	f.Add(hugeEvents(maxEvents))
	f.Add([]byte("scenario p\ngadget wedgie\nhorizon 10\nat 5 rank 3 3 2 1 0\n"))
	f.Add([]byte("seed -9223372036854775808\nhorizon 1\n# trailing"))
	f.Add(bytes.Repeat([]byte("at 1 linkdown 0 1\n"), 100))

	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Parse(data)
		if err != nil {
			return // rejected cleanly — that's the contract
		}
		// Whatever Parse accepts must satisfy Validate (Parse promises a
		// validated result) and round-trip through Encode byte-stably.
		if err := sc.Validate(); err != nil {
			t.Fatalf("Parse accepted an invalid scenario: %v\ninput:\n%s", err, data)
		}
		enc := sc.Encode()
		if len(enc) > MaxFileSize {
			t.Fatalf("Encode produced %d bytes from a %d-byte input", len(enc), len(data))
		}
		sc2, err := Parse(enc)
		if err != nil {
			t.Fatalf("re-parse of Encode output failed: %v\nencoded:\n%s", err, enc)
		}
		if !bytes.Equal(sc2.Encode(), enc) {
			t.Fatalf("Encode not stable:\nfirst:\n%s\nsecond:\n%s", enc, sc2.Encode())
		}
	})
}
