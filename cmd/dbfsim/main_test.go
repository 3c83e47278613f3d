package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/algebras"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/scenario"
	"repro/internal/topology"
)

// update rewrites the goldens under testdata/ from the current code.
var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// dbfsim runs one invocation in-process and returns its exit status and
// what it printed on each stream.
func dbfsim(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = realMain(args, &out, &errb)
	return code, out.String(), errb.String()
}

// oneJSON decodes stdout into v and fails unless it holds exactly one
// JSON object.
func oneJSON(t *testing.T, stdout string, v any) {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(stdout))
	if err := dec.Decode(v); err != nil {
		t.Fatalf("stdout is not a JSON object: %v\n%s", err, stdout)
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); !errors.Is(err, io.EOF) {
		t.Fatalf("stdout holds more than one JSON value:\n%s", stdout)
	}
}

// scenarioOut reads back a scenario's -stats-json object
// (scenarioStatsJSON's embedded digest pointer cannot be decoded into).
type scenarioOut struct {
	Mode       string `json:"mode"`
	Substrates []struct {
		Substrate string `json:"substrate"`
		engineDigestJSON
	} `json:"substrates"`
}

func scenarioPath(name string) string {
	return filepath.Join("..", "..", "examples", "scenarios", name+".scenario")
}

// deltaRing8 is CI's replay-differential instance, extra flags appended.
func deltaRing8(extra ...string) []string {
	return append([]string{"-mode", "delta", "-algebra", "rip", "-topo", "ring", "-n", "8", "-seed", "4", "-steps", "400"}, extra...)
}

func TestDeltaMode(t *testing.T) {
	for _, alg := range []string{"rip", "policy"} {
		code, out, errs := dbfsim(deltaRing8("-algebra", alg)...)
		if code != 0 {
			t.Fatalf("%s: exit %d, stderr %q", alg, code, errs)
		}
		for _, want := range []string{"δ engine: T=", "converged at t=", "final state σ-stable: true", "routing tables"} {
			if !strings.Contains(out, want) {
				t.Errorf("%s: stdout lacks %q:\n%s", alg, want, out)
			}
		}
	}
}

func TestSimMode(t *testing.T) {
	code, out, errs := dbfsim("-mode", "sim", "-algebra", "rip", "-topo", "ring", "-n", "6", "-seed", "1", "-trace")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
	for _, want := range []string{"final state σ-stable: true", "routing tables", "route-change timeline:"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout lacks %q:\n%s", want, out)
		}
	}
}

// TestSimGoldens pins the event simulator byte for byte: a traced static
// run of each algebra family and every example scenario on the sim
// substrate print exactly what testdata/ holds, exit status included.
// Regenerate with `go test ./cmd/dbfsim -run TestSimGoldens -update` only
// when a change is meant to move the simulator's output.
func TestSimGoldens(t *testing.T) {
	cases := map[string][]string{}
	for _, alg := range []string{"rip", "policy", "pv", "gr"} {
		cases["sim-"+alg] = []string{"-mode", "sim", "-trace", "-n", "6", "-seed", "3", "-algebra", alg}
	}
	scens, err := filepath.Glob(scenarioPath("*"))
	if err != nil || len(scens) == 0 {
		t.Fatalf("no example scenarios (%v)", err)
	}
	for _, p := range scens {
		cases["scenario-"+strings.TrimSuffix(filepath.Base(p), ".scenario")] = []string{"-scenario", p, "-substrate", "sim"}
	}
	for name, args := range cases {
		code, out, _ := dbfsim(args...)
		got := fmt.Sprintf("%sexit %d\n", out, code)
		path := filepath.Join("testdata", name+".golden")
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%v: output differs from %s:\n%s", args, path, firstDiff(got, string(want)))
		}
	}
}

// firstDiff names the first line where got and want part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got  %q\n want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}

// TestSameFlagsSameOutput: a run is a pure function of its flags, so a
// second invocation prints what the first did, byte for byte.
func TestSameFlagsSameOutput(t *testing.T) {
	for _, args := range [][]string{
		deltaRing8(),
		deltaRing8("-algebra", "policy", "-garbage"),
		{"-mode", "sim", "-algebra", "pv", "-topo", "random", "-n", "7", "-seed", "3"},
		{"-scenario", scenarioPath("crash-recover")},
	} {
		code1, out1, _ := dbfsim(args...)
		code2, out2, _ := dbfsim(args...)
		if code1 != code2 || out1 != out2 {
			t.Errorf("%v: two runs differ (exit %d vs %d):\n%s\n---\n%s", args, code1, code2, out1, out2)
		}
	}
}

// TestDeltaStatsJSONIsEngineStats: -stats-json prints one object whose
// delta fields are engine.Run's Stats for the same instance.
func TestDeltaStatsJSONIsEngineStats(t *testing.T) {
	code, out, errs := dbfsim(deltaRing8("-stats-json")...)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
	var got deltaStatsJSON
	oneJSON(t, out, &got)

	alg := algebras.RIP()
	g, err := topology.Named("ring", 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	adj := topology.BuildUniform[algebras.NatInf](g, alg.AddEdge(1))
	eng := engine.New[algebras.NatInf](alg, adj, engine.Config{})
	defer eng.Close()
	res := eng.Run(matrix.Identity[algebras.NatInf](alg, 8), engine.Hashed{N: 8, T: 400, Seed: 4, MaxStaleness: 8})
	want := deltaJSON(res.Stats(), 400, matrix.IsStable[algebras.NatInf](alg, adj, res.Final()))
	if got != want {
		t.Fatalf("-stats-json = %+v, engine.Run = %+v", got, want)
	}
	if !got.Converged || got.Steps >= 400 || got.CellsComputed == 0 {
		t.Fatalf("implausible stats %+v", got)
	}
}

func TestSimAndScenarioStatsJSON(t *testing.T) {
	code, out, _ := dbfsim("-mode", "sim", "-algebra", "rip", "-topo", "ring", "-n", "6", "-seed", "1", "-stats-json")
	var sim simStatsJSON
	oneJSON(t, out, &sim)
	if code != 0 || sim.Mode != "sim" || !sim.Converged || !sim.Stable {
		t.Errorf("sim: exit %d, %+v", code, sim)
	}
	code, out, _ = dbfsim("-scenario", scenarioPath("rip-churn"), "-stats-json")
	var sc scenarioOut
	oneJSON(t, out, &sc)
	if code != 0 || sc.Mode != "scenario" || len(sc.Substrates) != 1 || sc.Substrates[0].Hash == "" {
		t.Errorf("scenario: exit %d, %+v", code, sc)
	}
}

// TestScenarioDigestIsScenarioRun: -scenario prints scenario.Run's engine
// digest and exits 0 exactly when it converged.
func TestScenarioDigestIsScenarioRun(t *testing.T) {
	for name, wantCode := range map[string]int{
		"badgadget-churn": 1, "countinfinity": 1, "crash-recover": 0,
		"goodgadget-churn": 0, "rip-churn": 0, "wedgie-flap": 1,
	} {
		sc, err := scenario.Load(scenarioPath(name))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := scenario.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		sr := rep.Substrates[0]
		want := scenario.DigestLine(sr.Steps, sr.ConvergedAt, sr.Cells, sr.Hash)

		code, out, errs := dbfsim("-scenario", scenarioPath(name))
		if code != wantCode {
			t.Errorf("%s: exit %d, want %d (stderr %q)", name, code, wantCode, errs)
		}
		if !strings.Contains(out, want+"\n") {
			t.Errorf("%s: stdout lacks scenario.Run's digest %q:\n%s", name, want, out)
		}

		_, out, _ = dbfsim("-scenario", scenarioPath(name), "-stats-json")
		var js scenarioOut
		oneJSON(t, out, &js)
		if len(js.Substrates) != 1 || js.Substrates[0].engineDigestJSON !=
			(engineDigestJSON{sr.Steps, sr.ConvergedAt, sr.Cells, fmt.Sprintf("%016x", sr.Hash)}) {
			t.Errorf("%s: -stats-json substrates %+v, scenario.Run %s", name, js.Substrates, want)
		}
	}
}

// TestScenarioWarnsOfIgnoredFlags: the scenario file sets the instance,
// faults and horizon, so each such flag given with -scenario draws one
// warning on stderr and changes nothing on stdout.
func TestScenarioWarnsOfIgnoredFlags(t *testing.T) {
	plain := []string{"-scenario", scenarioPath("rip-churn")}
	wantCode, wantOut, errs := dbfsim(plain...)
	if strings.Contains(errs, "ignoring") {
		t.Fatalf("no flag set, yet stderr warns: %q", errs)
	}
	ignored := []string{"-algebra", "pv", "-topo", "clique", "-n", "9", "-seed", "5", "-loss", "0.5",
		"-dup", "0.5", "-delay", "3", "-garbage", "-policy", "lp+=2", "-trace", "-mode", "delta", "-steps", "7"}
	code, out, errs := dbfsim(append(plain, ignored...)...)
	if code != wantCode || out != wantOut {
		t.Errorf("ignored flags changed the run: exit %d vs %d\n%s\n---\n%s", code, wantCode, out, wantOut)
	}
	for _, arg := range ignored {
		if !strings.HasPrefix(arg, "-") {
			continue
		}
		if want := "(" + arg + " is set by the scenario file under -scenario; ignoring)\n"; strings.Count(errs, want) != 1 {
			t.Errorf("stderr does not warn once of %s:\n%s", arg, errs)
		}
	}
	if _, _, errs := dbfsim(append(plain, "-substrate", "sim", "-stats-json")...); strings.Contains(errs, "ignoring") {
		t.Errorf("-substrate and -stats-json apply to a scenario, yet stderr warns: %q", errs)
	}
}

// TestFlagsOutsideTheirDoorWarn: each door reads only its own flags, so
// any other flag draws one stderr warning and changes neither stdout nor
// the exit status. The -server row names a missing scenario file: it
// exits 2 before dialling, after the warnings.
func TestFlagsOutsideTheirDoorWarn(t *testing.T) {
	for _, tc := range []struct {
		door          string
		args, ignored []string
	}{
		{"sim", []string{"-n", "4", "-seed", "2", "-trace"},
			[]string{"-steps", "7", "-substrate", "all", "-tenant", "t", "-run-id", "r", "-deadline", "1s"}},
		{"delta", deltaRing8(),
			[]string{"-loss", "0.5", "-dup", "0.5", "-delay", "3", "-trace", "-substrate", "all", "-tenant", "t", "-run-id", "r", "-deadline", "1s"}},
		{"scenario", []string{"-scenario", scenarioPath("rip-churn")},
			[]string{"-tenant", "t", "-run-id", "r", "-deadline", "1s"}},
		{"server", []string{"-server", "127.0.0.1:1", "-scenario", filepath.Join(t.TempDir(), "missing.scenario")},
			[]string{"-substrate", "all", "-stats-json", "-algebra", "pv", "-steps", "7"}},
	} {
		wantCode, wantOut, errs := dbfsim(tc.args...)
		if strings.Contains(errs, "ignoring") {
			t.Errorf("%s: only the door's own flags set, yet stderr warns: %q", tc.door, errs)
		}
		code, out, errs := dbfsim(append(tc.args, tc.ignored...)...)
		if code != wantCode || out != wantOut {
			t.Errorf("%s: ignored flags changed the run: exit %d vs %d\n%s\n---\n%s", tc.door, code, wantCode, out, wantOut)
		}
		flags := 0
		for _, arg := range tc.ignored {
			if strings.HasPrefix(arg, "-") {
				flags++
				if n := strings.Count(errs, "("+arg+" "); n != 1 {
					t.Errorf("%s: stderr warns %d times of %s:\n%s", tc.door, n, arg, errs)
				}
			}
		}
		if n := strings.Count(errs, "; ignoring)\n"); n != flags {
			t.Errorf("%s: %d warnings for %d ignored flags:\n%s", tc.door, n, flags, errs)
		}
	}
}

func TestBadInputExits2(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "nosuch"},
		{"-algebra", "nosuch"},
		{"-topo", "nosuch"},
		{"-topo", "fattree", "-n", "3"},
		{"-scenario", scenarioPath("rip-churn"), "-substrate", "nosuch"},
		{"-mode", "delta", "-algebra", "policy", "-policy", "lp+="},
		// The checkpoint door is gone: a run is replayed from its flags.
		{"-mode", "delta", "-checkpoint", "run.ckpt"},
		{"-mode", "delta", "-checkpoint-at", "10"},
		{"-resume", "run.ckpt"},
	} {
		code, out, errs := dbfsim(args...)
		if code != 2 || out != "" || errs == "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2, a message and no output", args, code, out, errs)
		}
	}
}

// TestFaultFlagsInRange: -delay below one tick and -loss/-dup outside
// the scenario parser's [0, 0.9] are input errors in every mode — one
// stderr line, exit 2 — where -delay 0 used to mean 10 ticks and a
// negative delay 1 tick. The edges of the ranges still run.
func TestFaultFlagsInRange(t *testing.T) {
	for _, args := range [][]string{
		{"-delay", "0"},
		{"-delay", "-5"},
		{"-loss", "1.5"},
		{"-dup", "-0.1"},
		{"-mode", "delta", "-loss", "NaN"},
		{"-scenario", scenarioPath("rip-churn"), "-dup", "0.95"},
	} {
		code, out, errs := dbfsim(args...)
		if code != 2 || out != "" || strings.Count(errs, "\n") != 1 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2, one stderr line and no output", args, code, out, errs)
		}
	}
	for _, args := range [][]string{
		{"-n", "4", "-delay", "1", "-loss", "0", "-dup", "0"},
		{"-n", "4", "-loss", "0.9", "-dup", "0.9"},
	} {
		if code, _, errs := dbfsim(args...); code == 2 {
			t.Errorf("%v: exit 2, stderr %q", args, errs)
		}
	}
}

// TestGarbageNeedsARandomState: pv and gr have no random start state, so
// -garbage with them is refused instead of silently starting clean.
func TestGarbageNeedsARandomState(t *testing.T) {
	for _, alg := range []string{"pv", "gr"} {
		for _, mode := range []string{"sim", "delta"} {
			code, out, errs := dbfsim("-mode", mode, "-algebra", alg, "-garbage", "-n", "4")
			if code != 2 || out != "" || !strings.Contains(errs, "shortest|rip|widest|policy") {
				t.Errorf("%s/%s -garbage: exit %d, stdout %q, stderr %q; want exit 2 naming the algebras that support it",
					alg, mode, code, out, errs)
			}
		}
	}
	for _, alg := range []string{"shortest", "rip", "widest", "policy"} {
		if code, _, errs := dbfsim("-mode", "delta", "-algebra", alg, "-garbage", "-n", "5", "-seed", "2"); code != 0 {
			t.Errorf("%s -garbage: exit %d, stderr %q", alg, code, errs)
		}
	}
}

// TestBadTopologyKeepsProfile: an input error returns through realMain,
// so the deferred profile writers still finish their files.
func TestBadTopologyKeepsProfile(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	if code, _, _ := dbfsim("-cpuprofile", cpu, "-memprofile", mem, "-topo", "nosuch"); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	for _, p := range []string{cpu, mem} {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		// pprof writes gzip-compressed protobuf.
		if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
			t.Errorf("%s: %d bytes, not a finished profile", filepath.Base(p), len(b))
		}
	}
}
