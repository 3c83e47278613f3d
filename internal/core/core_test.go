package core

import (
	"strings"
	"testing"
)

// minAlg is a tiny min-plus algebra over {0..4, 99(∞)} used to exercise
// the checkers in isolation from the real algebra packages.
type minAlg struct{}

const mInf = 99

func (minAlg) Choice(a, b int) int {
	if a < b {
		return a
	}
	return b
}
func (minAlg) Trivial() int        { return 0 }
func (minAlg) Invalid() int        { return mInf }
func (minAlg) Equal(a, b int) bool { return a == b }
func (minAlg) Format(r int) string {
	if r == mInf {
		return "∞"
	}
	return string(rune('0' + r))
}
func (minAlg) Universe() []int { return []int{0, 1, 2, 3, 4, mInf} }

func addEdge(w int) Edge[int] {
	return Fn[int]("+1", func(a int) int {
		if a == mInf {
			return mInf
		}
		if a+w >= mInf {
			return mInf
		}
		return a + w
	})
}

// brokenEdge neither fixes ∞ nor increases.
func brokenEdge() Edge[int] {
	return Fn[int]("broken", func(a int) int { return 0 })
}

func sample() Sample[int] {
	return Sample[int]{Routes: minAlg{}.Universe(), Edges: []Edge[int]{addEdge(1), addEdge(2)}}
}

func TestOrderFromChoice(t *testing.T) {
	alg := minAlg{}
	if !Leq[int](alg, 1, 3) || Leq[int](alg, 3, 1) {
		t.Error("1 ≤ 3 expected, 3 ≤ 1 not")
	}
	if !Leq[int](alg, 2, 2) {
		t.Error("≤ must be reflexive")
	}
	if Less[int](alg, 2, 2) {
		t.Error("< must be irreflexive")
	}
	if !Leq[int](alg, alg.Trivial(), mInf) {
		t.Error("0 ≤ ∞ must hold")
	}
	for _, r := range alg.Universe() {
		if !Leq[int](alg, alg.Trivial(), r) {
			t.Errorf("0 ≤ %d failed", r)
		}
		if !Leq[int](alg, r, alg.Invalid()) {
			t.Errorf("%d ≤ ∞ failed", r)
		}
	}
}

func TestRequiredPropertiesPass(t *testing.T) {
	if err := CheckRequired[int](minAlg{}, sample()); err != nil {
		t.Fatalf("min-plus sample must satisfy Definition 1: %v", err)
	}
}

func TestCheckAllReportsEveryProperty(t *testing.T) {
	reports := CheckAll[int](minAlg{}, sample())
	want := len(RequiredProperties()) + len(OptionalProperties())
	if len(reports) != want {
		t.Fatalf("CheckAll returned %d reports, want %d", len(reports), want)
	}
	for _, rep := range reports {
		if !rep.Holds {
			t.Errorf("%s failed: %s", rep.Property, rep.Counterexample)
		}
		if rep.Checked == 0 {
			t.Errorf("%s checked zero cases", rep.Property)
		}
	}
}

func TestStrictlyIncreasingDetectsZeroWeight(t *testing.T) {
	s := Sample[int]{Routes: minAlg{}.Universe(), Edges: []Edge[int]{addEdge(0)}}
	rep := Check[int](minAlg{}, StrictlyIncreasing, s)
	if rep.Holds {
		t.Fatal("+0 edge is not strictly increasing; checker should fail")
	}
	// But it is still (weakly) increasing.
	rep = Check[int](minAlg{}, Increasing, s)
	if !rep.Holds {
		t.Fatalf("+0 edge is increasing: %s", rep.Counterexample)
	}
}

func TestBrokenEdgeCaught(t *testing.T) {
	s := Sample[int]{Routes: minAlg{}.Universe(), Edges: []Edge[int]{brokenEdge()}}
	if rep := Check[int](minAlg{}, InvalidFixedPoint, s); rep.Holds {
		t.Error("broken edge maps ∞ to 0; InvalidFixedPoint should fail")
	}
	if rep := Check[int](minAlg{}, Increasing, s); rep.Holds {
		t.Error("broken edge decreases; Increasing should fail")
	}
}

// lyingChoice returns a value that is neither argument.
type lyingChoice struct{ minAlg }

func (lyingChoice) Choice(a, b int) int {
	if a == 1 && b == 2 || a == 2 && b == 1 {
		return 3
	}
	if a < b {
		return a
	}
	return b
}

func TestSelectiveViolationCaught(t *testing.T) {
	s := Sample[int]{Routes: []int{1, 2}, Edges: nil}
	rep := Check[int](lyingChoice{}, Selective, s)
	if rep.Holds {
		t.Fatal("non-selective choice not caught")
	}
	if !strings.Contains(rep.Counterexample, "neither") {
		t.Errorf("unhelpful counterexample: %s", rep.Counterexample)
	}
}

// nonCommutative prefers its first argument on ties of a special pair.
type nonCommutative struct{ minAlg }

func (nonCommutative) Choice(a, b int) int {
	if (a == 3 && b == 4) || (a == 4 && b == 3) {
		return a
	}
	if a < b {
		return a
	}
	return b
}

func TestCommutativityViolationCaught(t *testing.T) {
	s := Sample[int]{Routes: []int{3, 4}}
	if rep := Check[int](nonCommutative{}, Commutative, s); rep.Holds {
		t.Fatal("non-commutative choice not caught")
	}
}

func TestEnsureSpecialsAddsDistinguished(t *testing.T) {
	// A sample without 0 and ∞ must still exercise them.
	s := Sample[int]{Routes: []int{2, 3}}
	rep := Check[int](minAlg{}, TrivialAnnihilator, s)
	if rep.Checked < 4 { // 2, 3, plus the added 0 and ∞
		t.Errorf("specials not added: checked only %d", rep.Checked)
	}
}

func TestConstInvalid(t *testing.T) {
	e := ConstInvalid[int](minAlg{})
	for _, r := range (minAlg{}).Universe() {
		if e.Apply(r) != mInf {
			t.Errorf("ConstInvalid(%d) = %d", r, e.Apply(r))
		}
	}
	if e.Label() != "∞" {
		t.Errorf("label = %s", e.Label())
	}
}

func TestDistributivityOfMinPlus(t *testing.T) {
	// Classic fact: min-plus with pure additions is distributive.
	rep := Check[int](minAlg{}, Distributive, sample())
	if !rep.Holds {
		t.Fatalf("min-plus must distribute: %s", rep.Counterexample)
	}
}

// condEdge is a conditional policy: f(a) = a+1 if a even else ∞. It is the
// Equation 2 style route map that breaks distributivity.
func condEdge() Edge[int] {
	return Fn[int]("if-even(+1)", func(a int) int {
		if a == mInf || a%2 != 0 {
			return mInf
		}
		return a + 1
	})
}

func TestConditionalPolicyBreaksDistributivity(t *testing.T) {
	s := Sample[int]{Routes: minAlg{}.Universe(), Edges: []Edge[int]{condEdge()}}
	if rep := Check[int](minAlg{}, Distributive, s); rep.Holds {
		t.Fatal("conditional filtering should violate distributivity")
	}
	// Yet it remains strictly increasing: the policy-rich middle ground.
	if rep := Check[int](minAlg{}, StrictlyIncreasing, s); !rep.Holds {
		t.Fatalf("conditional filtering is strictly increasing: %s", rep.Counterexample)
	}
}

func TestReportString(t *testing.T) {
	rep := Report{Property: Selective, Holds: true, Checked: 5}
	if !strings.Contains(rep.String(), "PASS") {
		t.Errorf("String() = %s", rep)
	}
	rep = Report{Property: Selective, Holds: false, Counterexample: "boom"}
	if !strings.Contains(rep.String(), "boom") {
		t.Errorf("String() = %s", rep)
	}
}

func TestUniverseSample(t *testing.T) {
	s := UniverseSample[int](minAlg{}, minAlg{}, []Edge[int]{addEdge(1)})
	if len(s.Routes) != 6 || len(s.Edges) != 1 {
		t.Errorf("UniverseSample: %d routes, %d edges", len(s.Routes), len(s.Edges))
	}
}
