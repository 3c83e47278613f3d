package policy

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/paths"
)

func mustParse(t *testing.T, src string) Policy {
	t.Helper()
	p, err := ParsePolicy(src)
	if err != nil {
		t.Fatalf("ParsePolicy(%q): %v", src, err)
	}
	return p
}

func TestParseBasicTerms(t *testing.T) {
	r := Valid(1, NewCommunitySet(2), paths.FromNodes(1, 0))
	tests := []struct {
		src   string
		check func(Route) bool
	}{
		{"reject", func(out Route) bool { return out.IsInvalid() }},
		{"id", func(out Route) bool { return out.Compare(r) == 0 }},
		{"lp+=4", func(out Route) bool { return out.LPref == 5 }},
		{"addc(7)", func(out Route) bool { return out.Comms.Has(7) }},
		{"delc(2)", func(out Route) bool { return !out.Comms.Has(2) }},
		{"lp+=1; addc(3)", func(out Route) bool { return out.LPref == 2 && out.Comms.Has(3) }},
		{"if (comm(2)) { lp+=10 }", func(out Route) bool { return out.LPref == 11 }},
		{"if (comm(9)) { lp+=10 }", func(out Route) bool { return out.LPref == 1 }},
		{"if (comm(9)) { lp+=10 } else { addc(5) }", func(out Route) bool { return out.Comms.Has(5) }},
		{"if (comm(2) & path(1)) { reject }", func(out Route) bool { return out.IsInvalid() }},
		{"if (comm(2) & !path(1)) { reject }", func(out Route) bool { return !out.IsInvalid() }},
		{"if (lp==1 | comm(9)) { addc(6) }", func(out Route) bool { return out.Comms.Has(6) }},
		{"if ((comm(9) | path(0)) & lp==1) { lp+=2 }", func(out Route) bool { return out.LPref == 3 }},
	}
	for _, tc := range tests {
		pol := mustParse(t, tc.src)
		if out := pol.Apply(r); !tc.check(out) {
			t.Errorf("%q applied to %s gave %s", tc.src, r, out)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"lp-=4",           // no way to lower preference
		"lp+=x",           // not a number
		"addc(64)",        // community out of range
		"addc(3",          // missing paren
		"if comm(2) {id}", // missing parens around condition
		"if (comm(2)) id", // missing braces
		"frobnicate",
		"reject; ",
		"id extra",
		"if (comm(2)) { } ", // empty body
	}
	for _, src := range bad {
		if _, err := ParsePolicy(src); err == nil {
			t.Errorf("ParsePolicy(%q) should fail", src)
		}
	}
}

// TestParseConditionStandalone parses a compound condition as the guard
// of an if-policy that keeps a route the condition holds on and rejects
// the rest.
func TestParseConditionStandalone(t *testing.T) {
	guard := mustParse(t, "if (!(path(3) | comm(1)) & lp==0) { id } else { reject }")
	r := Valid(0, 0, paths.FromNodes(2, 0))
	if got := guard.Apply(r); got.IsInvalid() {
		t.Errorf("%s should keep %s", guard, r)
	}
	r2 := Valid(0, NewCommunitySet(1), paths.FromNodes(2, 0))
	if got := guard.Apply(r2); !got.IsInvalid() {
		t.Errorf("%s should reject %s, got %s", guard, r2, got)
	}
}

func TestParseWhitespaceInsensitive(t *testing.T) {
	a := mustParse(t, "addc(3);if(comm(3)){lp+=2}")
	b := mustParse(t, "  addc( 3 ) ;\n if ( comm( 3 ) ) {\n lp+= 2 }  ")
	r := Valid(0, 0, paths.FromNodes(1, 0))
	if a.Apply(r).Compare(b.Apply(r)) != 0 {
		t.Error("whitespace changed semantics")
	}
}

func TestParsedPoliciesRemainIncreasing(t *testing.T) {
	// Round-trip the fuzzer through the parser: render a random policy,
	// confirm the grammar's language is increasing, and spot-check that
	// parsed policies never beat the original route.
	alg := Algebra{}
	rng := rand.New(rand.NewSource(55))
	srcs := []string{
		"lp+=1",
		"addc(1); if (comm(1)) { lp+=3 } else { reject }",
		"if (path(2)) { if (comm(4)) { reject } else { lp+=1 } }; addc(4)",
		"delc(3); delc(4); if (!comm(3) & !comm(4)) { lp+=2 }",
	}
	for _, src := range srcs {
		pol := mustParse(t, src)
		e := alg.Edge(3, 1, pol)
		for k := 0; k < 200; k++ {
			r := RandomRoute(rng, 4)
			fr := e.Apply(r)
			if r.IsInvalid() {
				if !fr.IsInvalid() {
					t.Fatalf("%q resurrected ∞", src)
				}
				continue
			}
			if fr.Compare(r) <= 0 && !fr.IsInvalid() {
				t.Fatalf("%q produced a non-worse route: %s → %s", src, r, fr)
			}
		}
	}
}

func TestParseRendering(t *testing.T) {
	pol := mustParse(t, "if (comm(2)) { lp+=1 } else { reject }")
	s := pol.String()
	for _, frag := range []string{"inComm(2)", "lp+=1", "reject"} {
		if !strings.Contains(s, frag) {
			t.Errorf("rendered policy %q missing %q", s, frag)
		}
	}
}
