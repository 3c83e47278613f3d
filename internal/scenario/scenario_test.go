package scenario

import (
	"bytes"
	"testing"
)

// TestParseEncodeRoundTrip: Encode is a right inverse of Parse, and
// Parse(Encode(sc)) reproduces the scenario byte for byte.
func TestParseEncodeRoundTrip(t *testing.T) {
	src := []byte(`# the RFC 4264 wedgie, primary link flap
scenario wedgie-flap
gadget wedgie
start stable 0
seed 7
horizon 120
act 0.6
stale 4
loss 0.1
dup 0.05
at 30 linkdown 3 0
at 60 linkup 3 0
at 80 restart 2
at 90 rank 3 3 2 1 0
`)
	sc, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "wedgie-flap" || sc.Spec.Gadget != "wedgie" || sc.StartStable != 1 {
		t.Fatalf("header parsed wrong: %+v", sc)
	}
	if len(sc.Events) != 4 || sc.Events[3].Kind != SetRank || sc.Events[3].Rank != 3 {
		t.Fatalf("events parsed wrong: %+v", sc.Events)
	}
	enc := sc.Encode()
	sc2, err := Parse(enc)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, enc)
	}
	if !bytes.Equal(enc, sc2.Encode()) {
		t.Fatalf("round trip unstable:\n%s\nvs\n%s", enc, sc2.Encode())
	}
}

// TestParseTopoFamily covers the topo header and weight events.
func TestParseTopoFamily(t *testing.T) {
	sc, err := Parse([]byte("topo ring 8 rip\nseed 3\nhorizon 200\nat 40 weight 2 1 2\nat 90 linkdown 0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Spec.Topo != "ring" || sc.Spec.N != 8 || sc.Spec.Algebra != "rip" {
		t.Fatalf("spec parsed wrong: %+v", sc.Spec)
	}
	if sc.Events[0].Kind != SetWeight || sc.Events[0].Weight != 2 {
		t.Fatalf("weight event parsed wrong: %+v", sc.Events[0])
	}
}

// TestValidateRejects: the cross-family and range rules hold.
func TestValidateRejects(t *testing.T) {
	bad := []string{
		"gadget wedgie\nhorizon 10\nat 5 weight 2 1 2\n",              // weight on gadget
		"topo ring 6 rip\nhorizon 10\nat 5 rank 2 1 0\n",              // rank on topo
		"gadget nosuch\nhorizon 10\n",                                 // unknown gadget
		"topo ring 6 rip\nhorizon 10\nat 5 linkdown 1 1\n",            // self-link
		"topo ring 6 rip\nhorizon 10\nat 5 restart 6\n",               // node range
		"gadget wedgie\nhorizon 10\nat 5 restart 1\nat 5 restart 2\n", // non-increasing
		"topo ring 6 rip\nhorizon 10\nat 11 restart 1\n",              // past horizon
		"topo ring 6 rip\nseed 1\n",                                   // no horizon
		"topo ring 6 rip\nhorizon 10\nstart stable 0\n",               // stable start on topo
		"topo ring 6 rip\nhorizon 10\nact NaN\n",                      // NaN probability
		"topo ring 6 rip\nhorizon 10\nloss NaN\n",
	}
	for _, src := range bad {
		if _, err := Parse([]byte(src)); err == nil {
			t.Errorf("accepted invalid scenario:\n%s", src)
		}
	}
}

// TestBuildRejects: build-time facts — unknown permitted paths, links
// missing from the pristine topology — are caught with errors, not
// panics.
func TestBuildRejects(t *testing.T) {
	for _, src := range []string{
		"gadget wedgie\nhorizon 50\nat 5 rank 3 1 3 0\n", // path not permitted
		"gadget wedgie\nhorizon 50\nat 5 linkup 0 2\n",   // link not in topology
		"gadget wedgie\nstart stable 7\nhorizon 50\n",    // only 2 stable states
	} {
		sc, err := Parse([]byte(src))
		if err != nil {
			t.Fatalf("parse should succeed (build must fail): %v\n%s", err, src)
		}
		if _, err := Run(sc, SubEngine); err == nil {
			t.Errorf("built invalid scenario:\n%s", src)
		}
	}
}
