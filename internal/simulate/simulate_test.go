package simulate

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/algebras"
	"repro/internal/gadgets"
	"repro/internal/matrix"
	"repro/internal/paths"
	"repro/internal/trace"
)

func ripNet() (algebras.HopCount, *matrix.Adjacency[algebras.NatInf]) {
	alg := algebras.HopCount{Limit: 7}
	adj := matrix.NewAdjacency[algebras.NatInf](4)
	link := func(i, j int, w algebras.NatInf) {
		adj.SetEdge(i, j, alg.AddEdge(w))
		adj.SetEdge(j, i, alg.AddEdge(w))
	}
	link(0, 1, 1)
	link(1, 2, 1)
	link(2, 3, 1)
	link(3, 0, 1)
	adj.SetEdge(0, 2, alg.ConditionalEdge(1, algebras.DistanceAtMost(3)))
	return alg, adj
}

func TestSimulatorConvergesCleanStart(t *testing.T) {
	alg, adj := ripNet()
	want, _, _ := matrix.FixedPoint[algebras.NatInf](alg, adj, matrix.Identity[algebras.NatInf](alg, 4), 100)
	out := Run[algebras.NatInf](alg, adj, matrix.Identity[algebras.NatInf](alg, 4), Config{Seed: 1}, nil)
	if !out.Converged {
		t.Fatalf("did not converge: %s", out.Describe())
	}
	if !out.Final.Equal(alg, want) {
		t.Fatalf("final state differs from σ fixed point:\n%s", out.Final.Format(alg))
	}
}

func TestSimulatorConvergesUnderHeavyFaults(t *testing.T) {
	// 30% loss, 20% duplication, delays spanning 20 ticks: Theorem 7 says
	// the same fixed point is reached regardless.
	alg, adj := ripNet()
	want, _, _ := matrix.FixedPoint[algebras.NatInf](alg, adj, matrix.Identity[algebras.NatInf](alg, 4), 100)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		start := matrix.RandomStateFrom(rng, 4, alg.Universe())
		out := Run[algebras.NatInf](alg, adj, start, Config{
			Seed:     int64(1000 + trial),
			LossProb: 0.3,
			DupProb:  0.2,
			MaxDelay: 20,
		}, nil)
		if !out.Converged {
			t.Fatalf("trial %d: %s", trial, out.Describe())
		}
		if !out.Final.Equal(alg, want) {
			t.Fatalf("trial %d: wrong fixed point", trial)
		}
		if out.Stats.Dropped == 0 || out.Stats.Duplicated == 0 {
			t.Errorf("trial %d: fault injection inactive (dropped=%d dup=%d)",
				trial, out.Stats.Dropped, out.Stats.Duplicated)
		}
	}
}

func TestSimulatorDeterministicPerSeed(t *testing.T) {
	alg, adj := ripNet()
	start := matrix.Identity[algebras.NatInf](alg, 4)
	cfg := Config{Seed: 42, LossProb: 0.2, DupProb: 0.1}
	a := Run[algebras.NatInf](alg, adj, start, cfg, nil)
	b := Run[algebras.NatInf](alg, adj, start, cfg, nil)
	if a.EndTime != b.EndTime || a.Stats != b.Stats {
		t.Errorf("same seed, different runs: %+v vs %+v", a.Stats, b.Stats)
	}
}

func TestSimulatorSurvivesRestarts(t *testing.T) {
	// Mid-run restarts with garbage state (the Section 3.2 scenario):
	// convergence to the same fixed point afterwards.
	alg, adj := ripNet()
	want, _, _ := matrix.FixedPoint[algebras.NatInf](alg, adj, matrix.Identity[algebras.NatInf](alg, 4), 100)
	u := alg.Universe()
	gen := func(rng *rand.Rand) algebras.NatInf { return u[rng.Intn(len(u))] }
	out := Run[algebras.NatInf](alg, adj, matrix.Identity[algebras.NatInf](alg, 4), Config{
		Seed:     9,
		LossProb: 0.1,
	}, gen, restartAt[algebras.NatInf](60, 1), restartAt[algebras.NatInf](120, 3), restartAt[algebras.NatInf](180, 0))
	if !out.Converged {
		t.Fatalf("did not converge after restarts: %s", out.Describe())
	}
	if !out.Final.Equal(alg, want) {
		t.Fatal("restarts led to a different fixed point")
	}
}

func TestSimulatorDetectsNonConvergence(t *testing.T) {
	// BAD GADGET under the simulator: must hit MaxTime, not converge.
	s := gadgets.BadGadget()
	alg := gadgets.Algebra{S: s}
	adj := alg.Adjacency()
	out := Run[gadgets.Route](alg, adj, gadgets.InitialState(s), Config{
		Seed:    3,
		MaxTime: 20_000,
	}, nil)
	if out.Converged {
		t.Fatalf("BAD GADGET must not converge, yet: %s", out.Describe())
	}
}

func TestSimulatorDisagreeReachesSomeStableState(t *testing.T) {
	// DISAGREE converges on every run, but different seeds may pick
	// different stable states — that is precisely the anomaly.
	s := gadgets.Disagree()
	alg := gadgets.Algebra{S: s}
	adj := alg.Adjacency()
	stable := gadgets.StableStates(s)
	if len(stable) != 2 {
		t.Fatalf("DISAGREE has %d stable states, want 2", len(stable))
	}
	seen := map[string]bool{}
	for seed := int64(0); seed < 20; seed++ {
		out := Run[gadgets.Route](alg, adj, gadgets.InitialState(s), Config{
			Seed:     seed,
			LossProb: 0.3,
			MaxDelay: 30,
		}, nil)
		if !out.Converged {
			t.Fatalf("seed %d: DISAGREE run did not converge", seed)
		}
		matched := false
		for idx, st := range stable {
			if out.Final.Equal(alg, st) {
				seen[routeKey(alg, st)] = true
				matched = true
				_ = idx
			}
		}
		if !matched {
			t.Fatalf("seed %d: final state is not one of the stable states:\n%s",
				seed, out.Final.Format(alg))
		}
	}
	if len(seen) < 2 {
		t.Log("note: all seeds picked the same stable state; nondeterminism not exhibited with these seeds")
	}
}

func routeKey(alg gadgets.Algebra, x *matrix.State[gadgets.Route]) string {
	return x.Format(alg)
}

func TestSimulatorPathVectorInconsistentStart(t *testing.T) {
	// Garbage paths in the starting state get flushed (Theorem 11).
	s := gadgets.GoodGadget()
	alg := gadgets.Algebra{S: s}
	adj := alg.Adjacency()
	stable := gadgets.StableStates(s)
	if len(stable) != 1 {
		t.Fatalf("GOOD GADGET has %d stable states, want 1", len(stable))
	}
	start := gadgets.InitialState(s)
	start.Set(1, 0, gadgets.Route{Rank: 1, Path: paths.FromNodes(1, 2, 0)})
	start.Set(3, 0, gadgets.Route{Rank: 9, Path: paths.FromNodes(3, 1, 0)})
	out := Run[gadgets.Route](alg, adj, start, Config{Seed: 5, LossProb: 0.2}, nil)
	if !out.Converged {
		t.Fatalf("GOOD GADGET must converge: %s", out.Describe())
	}
	if !out.Final.Equal(alg, stable[0]) {
		t.Fatal("GOOD GADGET reached a state other than its unique stable state")
	}
}

func TestRunTracedRecordsEvents(t *testing.T) {
	alg, adj := ripNet()
	rec := &trace.Recorder{}
	out := Run[algebras.NatInf](alg, adj, matrix.Identity[algebras.NatInf](alg, 4), Config{
		Seed: 13, LossProb: 0.3, Trace: rec,
	}, nil)
	if !out.Converged {
		t.Fatalf("run failed: %s", out.Describe())
	}
	if rec.Count(trace.RouteChanged) == 0 {
		t.Error("no route changes recorded")
	}
	if rec.Count(trace.MessageSent) != out.Stats.Sent {
		t.Errorf("recorder sent=%d, stats sent=%d", rec.Count(trace.MessageSent), out.Stats.Sent)
	}
	if rec.Count(trace.MessageDropped) != out.Stats.Dropped {
		t.Errorf("recorder dropped=%d, stats dropped=%d", rec.Count(trace.MessageDropped), out.Stats.Dropped)
	}
	if rec.LastChange() != out.ConvergedAt {
		t.Errorf("recorder last change %d, outcome %d", rec.LastChange(), out.ConvergedAt)
	}
}

// TestSimulatorTraceDeterminism: two runs with equal seed and nonzero
// loss, duplication and restarts must be indistinguishable down to the
// rendered trace — the determinism that makes scenario fuzzing and
// shrinking sound. Stats, finals, the raw event list and the rendered
// timeline/summary must all be byte-identical.
func TestSimulatorTraceDeterminism(t *testing.T) {
	alg, adj := ripNet()
	u := alg.Universe()
	gen := func(rng *rand.Rand) algebras.NatInf { return u[rng.Intn(len(u))] }
	run := func() (Outcome[algebras.NatInf], *trace.Recorder) {
		rec := &trace.Recorder{}
		out := Run[algebras.NatInf](alg, adj, matrix.Identity[algebras.NatInf](alg, 4), Config{
			Seed:     77,
			LossProb: 0.25,
			DupProb:  0.15,
			Trace:    rec,
		}, gen, restartAt[algebras.NatInf](60, 1), restartAt[algebras.NatInf](140, 3))
		return out, rec
	}
	a, ra := run()
	b, rb := run()
	if a.Stats != b.Stats || a.EndTime != b.EndTime || a.ConvergedAt != b.ConvergedAt {
		t.Fatalf("same seed, different outcomes: %+v vs %+v", a.Stats, b.Stats)
	}
	if a.Stats.Dropped == 0 || a.Stats.Duplicated == 0 {
		t.Fatal("fault injection inactive; the test is vacuous")
	}
	if !a.Final.Equal(alg, b.Final) {
		t.Fatal("same seed, different final states")
	}
	if !reflect.DeepEqual(ra.Events, rb.Events) {
		t.Fatal("same seed, different event streams")
	}
	render := func(r *trace.Recorder) []byte {
		var buf bytes.Buffer
		r.Timeline(&buf, len(r.Events))
		r.Summary(&buf)
		return buf.Bytes()
	}
	if !bytes.Equal(render(ra), render(rb)) {
		t.Fatal("same seed, different rendered traces")
	}
}
