package scenario

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
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

// TestValidateNameCap: the name is checked by Validate, not only by
// Parse, so a scenario built or edited in code meets the same 64-char
// [a-zA-Z0-9_-] rule as one read from text.
func TestValidateNameCap(t *testing.T) {
	sc, err := Parse([]byte("scenario ok\ntopo ring 8 rip\nhorizon 10\n"))
	if err != nil {
		t.Fatal(err)
	}
	sc.Name = strings.Repeat("n", maxName)
	if err := sc.Validate(); err != nil {
		t.Fatalf("%d-char name refused: %v", maxName, err)
	}
	for _, name := range []string{strings.Repeat("n", maxName+1), "", "two words", "dot.ted"} {
		sc.Name = name
		if err := sc.Validate(); err == nil {
			t.Errorf("Validate accepted name %q", name)
		}
	}
	if _, err := Parse([]byte("scenario " + strings.Repeat("n", maxName+1) + "\ntopo ring 8 rip\nhorizon 10\n")); err == nil {
		t.Error("Parse accepted a 65-char name")
	}
}

// TestRankBound: Validate and Parse share one rank bound, so a rank
// edit Validate accepts encodes to text Parse reads back.
func TestRankBound(t *testing.T) {
	sc := &Scenario{Name: "r", Spec: Spec{Gadget: "wedgie"}, Horizon: 10,
		Events: []Event{{Step: 5, Kind: SetRank, Rank: maxRank, Path: []int{3, 2, 1, 0}}}}
	if back, err := Parse(sc.Encode()); err != nil || !reflect.DeepEqual(back, sc) {
		t.Fatalf("rank %d does not round-trip: %+v, %v", maxRank, back, err)
	}
	sc.Events[0].Rank++
	if _, err := Parse(sc.Encode()); sc.Validate() == nil || err == nil {
		t.Errorf("rank %d accepted: Validate %v, Parse %v", maxRank+1, sc.Validate(), err)
	}
}

// TestLargestValidEncodesUnderServiceableCap: the largest scenario
// Validate accepts — a maximal name, every optional line at its longest
// rendering, and the event cap filled with the longest event of its
// family — encodes under MaxServiceableBytes. This is why the service
// caps only the submitted bytes and never re-encodes a parsed scenario
// to measure it.
func TestLargestValidEncodesUnderServiceableCap(t *testing.T) {
	const longest = 2.2250738585072014e-308 // the longest %g rendering in [0, 0.9]
	base := Scenario{
		Name: strings.Repeat("n", maxName), Seed: math.MinInt64, Horizon: maxHorizon,
		ActProb: longest, MaxStaleness: maxHorizon, LossProb: longest, DupProb: longest,
	}
	gadget := base
	gadget.Spec = Spec{Gadget: "goodgadget"}
	gadget.StartStable = 16
	topo := base
	topo.Spec = Spec{Topo: "random", N: maxNodes, Algebra: "shortest"}
	for i := 0; i < maxEvents; i++ {
		step := maxHorizon - maxEvents + 1 + i
		gadget.Events = append(gadget.Events, Event{Step: step, Kind: SetRank, Rank: maxRank, Path: []int{3, 2, 1, 0}})
		topo.Events = append(topo.Events, Event{Step: step, Kind: SetWeight, A: maxNodes - 1, B: maxNodes - 2, Weight: maxWeight})
	}
	for _, sc := range []*Scenario{&gadget, &topo} {
		if err := sc.Validate(); err != nil {
			t.Fatalf("%+v: the worst case must be valid: %v", sc.Spec, err)
		}
		enc := sc.Encode()
		t.Logf("%+v: %d bytes encoded", sc.Spec, len(enc))
		if len(enc) > MaxServiceableBytes {
			t.Errorf("%+v encodes to %d bytes, over the %d-byte serviceable cap", sc.Spec, len(enc), MaxServiceableBytes)
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

// FuzzValidateRoundTrip is FuzzParse's converse: a scenario built in
// code that Validate accepts encodes to text Parse reads back to the
// same scenario. Fields come from the fuzzer unclamped, so Validate alone
// decides which scenarios count. Each 8 bytes of evs are one event: kind,
// step delta, two signed nodes and a 32-bit rank or weight; a rank edit
// then takes the low three bits of its second node as a path length.
func FuzzValidateRoundTrip(f *testing.F) {
	f.Add("flap", uint8(6), 8, uint8(2), int64(5), 600, 0, 0.6, 4, 0.1, 0.05,
		[]byte{0, 40, 0, 1, 0, 0, 0, 0, 1, 80, 0, 1, 0, 0, 0, 0, 4, 30, 3, 2, 7, 0, 0, 0})
	f.Add("wedge", uint8(3), 0, uint8(0), int64(math.MinInt64), 4096, 1, 1.0, 4096, 0.9, 0.9,
		[]byte{5, 20, 1, 0, 0, 0, 0, 0, 6, 9, 1, 0, 0, 0, 0, 0, 3, 50, 3, 4, 0, 0, 0x10, 0, 3, 2, 1, 0})
	families := []Spec{{Gadget: "disagree"}, {Gadget: "badgadget"}, {Gadget: "goodgadget"}, {Gadget: "wedgie"},
		{Topo: "line"}, {Topo: "ring"}, {Topo: "star"}, {Topo: "clique"}, {Topo: "random"}, {Topo: "torus"}}
	algebras := []string{"", "shortest", "rip", "bgp"}
	f.Fuzz(func(t *testing.T, name string, family uint8, n int, algebra uint8, seed int64,
		horizon, stable int, act float64, stale int, loss, dup float64, evs []byte) {
		sc := &Scenario{Name: name, Spec: families[int(family)%len(families)], Seed: seed, Horizon: horizon,
			StartStable: stable, ActProb: act, MaxStaleness: stale, LossProb: loss, DupProb: dup}
		sc.Spec.N, sc.Spec.Algebra = n, algebras[int(algebra)%len(algebras)]
		for step := 0; len(evs) >= 8; {
			b, v := evs[:8], binary.LittleEndian.Uint32(evs[4:8])
			evs = evs[8:]
			step += int(int8(b[1]))
			a, c := int(int8(b[2])), int(int8(b[3]))
			ev := Event{Step: step, Kind: EventKind(b[0] % 8)}
			switch ev.Kind {
			case LinkDown, LinkUp:
				ev.A, ev.B = a, c
			case Restart, NodeCrash, NodeRecover:
				ev.Node = a
			case SetRank:
				ev.Rank = v
				for ; len(ev.Path) < int(b[3]&7) && len(evs) > 0; evs = evs[1:] {
					ev.Path = append(ev.Path, int(int8(evs[0])))
				}
			case SetWeight:
				ev.A, ev.B, ev.Weight = a, c, int64(int32(v))
			}
			sc.Events = append(sc.Events, ev)
		}
		if sc.Validate() != nil {
			return
		}
		back, err := Parse(sc.Encode())
		if err != nil || !reflect.DeepEqual(back, sc) {
			t.Fatalf("Validate accepted %+v, but its encoding parses to %+v, %v\n%s", sc, back, err, sc.Encode())
		}
	})
}
