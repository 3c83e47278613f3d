package expr

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestTable1Deterministic: E1 is a pure function of the code. Its
// counterexample counts depend on the order the property checks see the
// sample routes in, so every sample must come in a fixed order.
func TestTable1Deterministic(t *testing.T) {
	var first bytes.Buffer
	Table1(&first)
	for run := 1; run < 10; run++ {
		var buf bytes.Buffer
		Table1(&buf)
		if !bytes.Equal(buf.Bytes(), first.Bytes()) {
			t.Fatalf("run %d printed a different E1 table:\n%s\nfirst run:\n%s", run, buf.String(), first.String())
		}
	}
}

func TestTable1Matrix(t *testing.T) {
	var buf bytes.Buffer
	res := Table1(&buf)
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	// The paper's key qualitative claims, as verdicts.
	wantHolds := []struct {
		alg  string
		prop core.Property
		want bool
	}{
		{"shortest-paths", core.Distributive, true},
		{"shortest-paths", core.StrictlyIncreasing, true},
		{"longest-paths", core.Increasing, false},
		{"widest-paths", core.Increasing, true},
		{"widest-paths", core.StrictlyIncreasing, false},
		{"rip-16+filtering", core.StrictlyIncreasing, true},
		{"rip-16+filtering", core.Distributive, false},
		{"gao-rexford", core.StrictlyIncreasing, true},
		{"gao-rexford+hidden-lpref", core.Increasing, false},
		{"section7-policy", core.StrictlyIncreasing, true},
		{"section7-policy", core.Distributive, false},
		{"bad-gadget", core.Increasing, false},
	}
	for _, tc := range wantHolds {
		got, found := res.Verdict(tc.alg, tc.prop)
		if !found {
			t.Errorf("no verdict for (%s, %s)", tc.alg, tc.prop)
			continue
		}
		if got != tc.want {
			t.Errorf("(%s, %s) = %v, want %v", tc.alg, tc.prop, got, tc.want)
		}
	}
	if !res.OK() {
		t.Error("E1 deviates from the paper: a required law fails outside bgp-med, or bgp-med is associative")
	}
	if !strings.Contains(buf.String(), "shortest-paths") {
		t.Error("table output missing rows")
	}
}

// TestTable1OKRejectsDeviations: OK, the verdict cmd/experiments exits
// on, turns false when a required law of a non-MED algebra fails and
// when bgp-med's associativity holds.
func TestTable1OKRejectsDeviations(t *testing.T) {
	res := Table1(io.Discard)
	if !res.OK() {
		t.Fatal("the regenerated matrix must agree with the paper")
	}
	flipped := func(alg string, p core.Property) Table1Result {
		rows := append([]Table1Row(nil), res.Rows...)
		for i := range rows {
			if rows[i].Algebra == alg && rows[i].Property == p {
				rows[i].Holds = !rows[i].Holds
				return Table1Result{Rows: rows}
			}
		}
		t.Fatalf("no (%s, %s) row", alg, p)
		return Table1Result{}
	}
	for _, p := range core.RequiredProperties() {
		if flipped("gao-rexford", p).OK() {
			t.Errorf("OK with gao-rexford's required law %q failing", p)
		}
	}
	if flipped("bgp-med", core.Associative).OK() {
		t.Error("OK with bgp-med associative")
	}
	var noMED Table1Result
	for _, row := range res.Rows {
		if row.Algebra != "bgp-med" {
			noMED.Rows = append(noMED.Rows, row)
		}
	}
	if noMED.OK() {
		t.Error("OK without a bgp-med row")
	}
}

func TestTable2Solves(t *testing.T) {
	res := Table2(io.Discard)
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows, want 4", len(res.Rows))
	}
	for _, row := range res.Rows {
		if !row.LawsOK {
			t.Errorf("%s failed its laws or did not converge", row.Use)
		}
	}
	// Spot-check the computed routes.
	if !strings.Contains(res.Rows[0].Solved, "0→3: 3") {
		t.Errorf("shortest paths solved %q, want 0→3: 3", res.Rows[0].Solved)
	}
	if !strings.Contains(res.Rows[2].Solved, "0→3: 7") {
		t.Errorf("widest paths solved %q, want 0→3: 7", res.Rows[2].Solved)
	}
	if !strings.Contains(res.Rows[3].Solved, "0.729") {
		t.Errorf("most reliable solved %q, want 0.729", res.Rows[3].Solved)
	}
}

func TestFigure1Pipeline(t *testing.T) {
	res := Figure1(io.Discard, 30)
	if !res.AllOK() {
		t.Fatalf("implication chain broke: %+v", res.Stages)
	}
	if len(res.Stages) != 5 {
		t.Errorf("%d stages, want 5", len(res.Stages))
	}
}

func TestFigure2Chains(t *testing.T) {
	res := Figure2(io.Discard)
	if !res.OK {
		t.Fatalf("chains malformed: DV %v, PV %v", res.DVChain, res.PVChain)
	}
	if res.PVCrossover < 0 {
		t.Error("PV chain never left the inconsistent band")
	}
	if res.PVChain[0] <= res.PVHc {
		t.Error("PV chain must start above H_c")
	}
	if res.DVChain[0] > res.DVBound || res.PVChain[0] > res.PVBound {
		t.Error("chains exceed their bounds")
	}
}

func TestDistanceVectorE5(t *testing.T) {
	res := DistanceVector(io.Discard, 12)
	if !res.AllOK() {
		t.Fatalf("E5 failed: %+v", res.Rows)
	}
}

func TestPathVectorE6(t *testing.T) {
	res := PathVector(io.Discard, 10)
	if !res.AllOK() {
		t.Fatalf("E6 failed: %+v", res.Rows)
	}
}

func TestSafeByDesignE7(t *testing.T) {
	res := SafeByDesign(io.Discard, 300, 6)
	if !res.OK() {
		t.Fatalf("E7 failed: %+v", res)
	}
	if res.PoliciesFuzzed < 200 {
		t.Errorf("only %d policies fuzzed", res.PoliciesFuzzed)
	}
}

func TestAnomaliesE8(t *testing.T) {
	res := Anomalies(io.Discard, 8)
	if !res.AllOK() {
		t.Fatalf("E8 failed: %+v", res)
	}
}

func TestGaoRexfordE9(t *testing.T) {
	res := GaoRexford(io.Discard, 8)
	if !res.OK() {
		t.Fatalf("E9 failed: %+v", res)
	}
}

func TestConvergenceRateE10(t *testing.T) {
	res := ConvergenceRate(io.Discard, []int{4, 6, 8}, 8)
	if !res.DistributiveLinear {
		t.Error("distributive family exceeded the O(n) bound")
	}
	if !res.IncreasingQuadratic {
		t.Error("increasing family exceeded the O(n²) bound")
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rate rows")
	}
}

func TestAsyncEquivalenceE12(t *testing.T) {
	res := AsyncEquivalence(io.Discard, 8)
	if !res.OK() {
		t.Fatalf("E12 failed: %+v", res)
	}
}

func TestBisimulationE13(t *testing.T) {
	res := Bisimulation(io.Discard, 15)
	if !res.OK() {
		t.Fatalf("E13 failed: %+v", res)
	}
}

func TestDynamicE14(t *testing.T) {
	res := Dynamic(io.Discard, 20)
	if !res.OK() {
		t.Fatalf("E14 failed: %+v", res)
	}
}

func TestFaultSensitivityE15(t *testing.T) {
	res := FaultSensitivity(io.Discard, 10)
	if !res.AllConverged() {
		t.Fatalf("E15: some trials failed to converge: %+v", res.Rows)
	}
	if !res.MonotoneOverhead() {
		t.Errorf("message overhead should weakly grow with fault level: %+v", res.Rows)
	}
}
