package policy

import (
	"math/rand"
	"testing"

	"repro/internal/paths"
)

// TestInternedAlgebraDifferential drives random routes through random
// policies and both carriers, requiring agreement of Apply, Choice,
// Compare and Equal under the FromRoute/ToRoute correspondence.
func TestInternedAlgebraDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ref := Algebra{}
	in := NewInterned(nil)
	const n = 5
	for trial := 0; trial < 2000; trial++ {
		a := RandomRoute(rng, n)
		b := RandomRoute(rng, n)
		ia, ib := in.FromRoute(a), in.FromRoute(b)
		if got, want := in.Compare(ia, ib), a.Compare(b); got != want {
			t.Fatalf("Compare(%s, %s) = %d, want %d", a, b, got, want)
		}
		if got, want := in.Equal(ia, ib), ref.Equal(a, b); got != want {
			t.Fatalf("Equal(%s, %s) = %v, want %v", a, b, got, want)
		}
		if got, want := in.ToRoute(in.Choice(ia, ib)), ref.Choice(a, b); got.Compare(want) != 0 {
			t.Fatalf("Choice(%s, %s) = %s, want %s", a, b, got, want)
		}

		pol := RandomPolicy(rng, n, 3)
		i, j := rng.Intn(n), rng.Intn(n)
		er := ref.Edge(i, j, pol).Apply(a)
		ei := in.Edge(i, j, pol).Apply(ia)
		if got := in.ToRoute(ei); got.Compare(er) != 0 {
			t.Fatalf("edge (%d,%d) policy %s on %s: interned %s, reference %s",
				i, j, pol, a, got, er)
		}
		if in.Format(ei) != er.String() {
			t.Fatalf("Format mismatch: %s vs %s", in.Format(ei), er)
		}
	}
}

// TestInternedPolicyRoundTrip checks FromRoute/ToRoute inversion and the
// distinguished elements.
func TestInternedPolicyRoundTrip(t *testing.T) {
	in := NewInterned(paths.NewTable())
	if !in.ToRoute(in.Trivial()).Equal(TrivialRoute) {
		t.Fatal("trivial round trip")
	}
	if !in.ToRoute(in.Invalid()).IsInvalid() {
		t.Fatal("invalid round trip")
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		r := RandomRoute(rng, 6)
		if got := in.ToRoute(in.FromRoute(r)); got.Compare(r) != 0 {
			t.Fatalf("round trip %s -> %s", r, got)
		}
	}
}

// Equal on Route for test readability.
func (r Route) Equal(s Route) bool { return r.Compare(s) == 0 }

// TestInternedConditionPath exercises the InPath predicate against the
// intern table, including through an external (non-AST) policy.
func TestInternedConditionPath(t *testing.T) {
	in := NewInterned(nil)
	pol := If(InPath(2), IncrPrefBy(7))
	r := Valid(1, NewCommunitySet(3), paths.FromNodes(2, 1, 0))
	ir := in.FromRoute(r)
	want := pol.Apply(r)
	if got := in.ToRoute(in.apply(pol, ir)); got.Compare(want) != 0 {
		t.Fatalf("InPath policy: %s, want %s", got, want)
	}
	// A custom policy type outside the AST must still work (via the
	// reference round trip).
	custom := customPolicy{}
	if got := in.ToRoute(in.apply(custom, ir)); got.Compare(custom.Apply(r)) != 0 {
		t.Fatal("external policy mismatch")
	}
}

type customPolicy struct{}

func (customPolicy) Apply(r Route) Route {
	if r.IsInvalid() {
		return InvalidRoute
	}
	r.LPref += 11
	return r
}
func (customPolicy) String() string { return "custom" }

func TestCommunitySetMembers(t *testing.T) {
	if got := CommunitySet(0).Members(); got != nil {
		t.Fatalf("Members(∅) = %v", got)
	}
	s := NewCommunitySet(0, 3, 17, 63)
	got := s.Members()
	want := []Community{0, 3, 17, 63}
	if len(got) != len(want) {
		t.Fatalf("Members = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Members = %v, want %v", got, want)
		}
	}
	if s.String() != "{0,3,17,63}" {
		t.Fatalf("String = %s", s.String())
	}
	// Exhaustive agreement with the membership predicate.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		s := CommunitySet(rng.Uint64())
		ms := s.Members()
		seen := make(map[Community]bool, len(ms))
		prev := -1
		for _, c := range ms {
			if int(c) <= prev {
				t.Fatalf("Members out of order: %v", ms)
			}
			prev = int(c)
			seen[c] = true
		}
		for c := Community(0); c <= MaxCommunity; c++ {
			if s.Has(c) != seen[c] {
				t.Fatalf("membership mismatch at %d in %v", c, ms)
			}
		}
	}
}
