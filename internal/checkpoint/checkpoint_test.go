package checkpoint_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/algebras"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gadgets"
	"repro/internal/gaorexford"
	"repro/internal/matrix"
	"repro/internal/pathalg"
	"repro/internal/policy"
	"repro/internal/schedule"
	"repro/internal/wire"
)

var update = flag.Bool("update", false, "rewrite golden checkpoint files")

// Format compatibility is tested against committed golden files, one per
// carrier family and format version: a freshly encoded snapshot of the
// same deterministic run must still produce exactly the current golden
// bytes, and both the current golden and the version-1 one (testdata/v1,
// written before the stats block shrank) must decode and resume to the
// uninterrupted run — the upgrade path of a spool that outlives its
// daemon. The decode side rebuilds its algebra from scratch — for the
// interned families that means a fresh paths.Table, so a passing restore
// proves the interned-id remap, not just the byte plumbing.

// family packages one carrier: a builder (called separately for the
// encode and decode sides) and the deterministic instance parameters.
func goldenCase[R any](t *testing.T, name string, mk func() (core.Algebra[R], *matrix.Adjacency[R], wire.Codec[R])) {
	t.Helper()
	const T, at = 40, 20
	alg1, adj1, codec1 := mk()
	n := adj1.N
	s := schedule.Random(rand.New(rand.NewSource(11)), n, T, schedule.Options{MaxGap: 5, MaxStaleness: 4})
	eng1 := engine.New(alg1, adj1, engine.Config{})
	defer eng1.Close()
	full, snap := eng1.RunSnapshot(matrix.Identity(alg1, n), s, at, false)
	if snap == nil {
		t.Fatal("no snapshot captured")
	}
	data, err := checkpoint.Encode(codec1, &checkpoint.File[R]{
		Family: name,
		Meta:   map[string]string{"family": name, "horizon": fmt.Sprint(T)},
		Snap:   snap,
	})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}

	golden := filepath.Join("testdata", name+".ckpt")
	if *update {
		if err := os.WriteFile(golden, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file: %v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("encoding of the deterministic %s snapshot no longer matches the golden file (%d vs %d bytes); if the format changed intentionally, bump checkpoint.Version and regenerate with -update",
			name, len(data), len(want))
	}

	restoreGolden(t, "v2", want, name, T, s, full, alg1, mk)
	v1, err := os.ReadFile(filepath.Join("testdata", "v1", name+".ckpt"))
	if err != nil {
		t.Fatalf("v1 golden file: %v", err)
	}
	restoreGolden(t, "v1", v1, name, T, s, full, alg1, mk)
}

// restoreGolden decodes golden bytes against a freshly built instance and
// proves the restored continuation matches the uninterrupted run.
// Comparison goes through Format: interned ids legitimately differ
// across tables, the materialised routes must not.
func restoreGolden[R any](t *testing.T, label string, data []byte, name string, T int, s engine.Source,
	full *engine.Result[R], alg1 core.Algebra[R], mk func() (core.Algebra[R], *matrix.Adjacency[R], wire.Codec[R])) {
	t.Helper()
	family, meta, err := checkpoint.Header(data)
	if err != nil {
		t.Fatalf("%s header: %v", label, err)
	}
	if family != name || meta["horizon"] != fmt.Sprint(T) {
		t.Fatalf("%s header round trip: got family %q meta %v", label, family, meta)
	}
	alg2, adj2, codec2 := mk()
	f, err := checkpoint.Decode(codec2, data, name)
	if err != nil {
		t.Fatalf("%s decode: %v", label, err)
	}
	eng2 := engine.New(alg2, adj2, engine.Config{})
	defer eng2.Close()
	resumed, err := eng2.Restore(f.Snap, s)
	if err != nil {
		t.Fatalf("%s restore: %v", label, err)
	}
	wantFinal, gotFinal := full.Final(), resumed.Final()
	n := adj2.N
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			w, g := alg1.Format(wantFinal.Get(i, j)), alg2.Format(gotFinal.Get(i, j))
			if w != g {
				t.Fatalf("%s: cell (%d,%d) after golden restore: got %s want %s", label, i, j, g, w)
			}
		}
	}
	if got, want := resumed.Stats(), full.Stats(); got != want {
		t.Fatalf("%s: stats after golden restore: got %+v want %+v", label, got, want)
	}
}

func TestGoldenCheckpoints(t *testing.T) {
	t.Run("natinf", func(t *testing.T) {
		goldenCase(t, "natinf", func() (core.Algebra[algebras.NatInf], *matrix.Adjacency[algebras.NatInf], wire.Codec[algebras.NatInf]) {
			alg := algebras.HopCount{Limit: 9}
			adj := matrix.NewAdjacency[algebras.NatInf](5)
			for i := 0; i < 5; i++ {
				j := (i + 1) % 5
				adj.SetEdge(i, j, alg.AddEdge(1))
				adj.SetEdge(j, i, alg.AddEdge(1))
			}
			return alg, adj, wire.NatInfCodec{}
		})
	})
	t.Run("lex", func(t *testing.T) {
		type P = algebras.Pair[algebras.NatInf, algebras.NatInf]
		goldenCase(t, "lex", func() (core.Algebra[P], *matrix.Adjacency[P], wire.Codec[P]) {
			wide := algebras.WidestPaths{}
			hops := algebras.HopCount{Limit: 9}
			lex := algebras.NewLex[algebras.NatInf, algebras.NatInf](wide, hops)
			adj := matrix.NewAdjacency[P](5)
			caps := []algebras.NatInf{3, 7, 2, 9, 5}
			for i := 0; i < 5; i++ {
				j := (i + 1) % 5
				e := lex.Edge(wide.CapEdge(caps[i]), hops.AddEdge(1))
				adj.SetEdge(i, j, e)
				adj.SetEdge(j, i, e)
			}
			return lex, adj, wire.PairCodec[algebras.NatInf, algebras.NatInf]{First: wire.NatInfCodec{}, Second: wire.NatInfCodec{}}
		})
	})
	t.Run("gaorexford", func(t *testing.T) {
		goldenCase(t, "gaorexford", func() (core.Algebra[gaorexford.Route], *matrix.Adjacency[gaorexford.Route], wire.Codec[gaorexford.Route]) {
			alg := gaorexford.Algebra{MaxHops: 12}
			adj := matrix.NewAdjacency[gaorexford.Route](5)
			for i := 0; i < 5; i++ {
				for j := 0; j < 5; j++ {
					if i == j {
						continue
					}
					switch {
					case i+1 == j || j+1 == i:
						adj.SetEdge(i, j, alg.Edge(gaorexford.PeerEdge))
					case i < j:
						adj.SetEdge(i, j, alg.Edge(gaorexford.CustomerEdge))
					default:
						adj.SetEdge(i, j, alg.Edge(gaorexford.ProviderEdge))
					}
				}
			}
			return alg, adj, wire.GaoRexfordCodec{}
		})
	})
	t.Run("policy-interned", func(t *testing.T) {
		goldenCase(t, "policy-interned", func() (core.Algebra[policy.IRoute], *matrix.Adjacency[policy.IRoute], wire.Codec[policy.IRoute]) {
			pol, err := policy.ParsePolicy("addc(2); if (comm(2) & !path(3)) { lp+=7 } else { prepend(1) }")
			if err != nil {
				t.Fatal(err)
			}
			alg := policy.NewInterned(nil)
			adj := matrix.NewAdjacency[policy.IRoute](6)
			for i := 0; i < 6; i++ {
				for _, d := range []int{1, 2} {
					j := (i + d) % 6
					adj.SetEdge(i, j, alg.Edge(i, j, pol))
					adj.SetEdge(j, i, alg.Edge(j, i, pol))
				}
			}
			return alg, adj, wire.InternedPolicyCodec{Alg: alg}
		})
	})
	t.Run("pv-interned", func(t *testing.T) {
		type RI = pathalg.IRoute[algebras.NatInf]
		goldenCase(t, "pv-interned", func() (core.Algebra[RI], *matrix.Adjacency[RI], wire.Codec[RI]) {
			base := algebras.HopCount{Limit: 9}
			in := pathalg.NewInterned[algebras.NatInf](base, nil)
			baseAdj := matrix.NewAdjacency[algebras.NatInf](5)
			for i := 0; i < 5; i++ {
				j := (i + 1) % 5
				baseAdj.SetEdge(i, j, base.AddEdge(1))
				baseAdj.SetEdge(j, i, base.AddEdge(1))
			}
			return in, pathalg.LiftAdjacencyInterned(in, baseAdj), wire.InternedPathCodec[algebras.NatInf]{Alg: in, Base: wire.NatInfCodec{}}
		})
	})
	t.Run("spp", func(t *testing.T) {
		goldenCase(t, "spp", func() (core.Algebra[gadgets.Route], *matrix.Adjacency[gadgets.Route], wire.Codec[gadgets.Route]) {
			spp := gadgets.Disagree().Clone()
			alg := gadgets.Algebra{S: spp}
			return alg, alg.Adjacency(), wire.SPPCodec{}
		})
	})
}

// TestCheckpointTamper flips and truncates bytes of a real checkpoint:
// every corruption must come back as a clean error — the checksum
// catches arbitrary flips, and even with a recomputed checksum the
// bounds-checked decoder must never panic or over-allocate.
func TestCheckpointTamper(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "natinf.ckpt"))
	if err != nil {
		t.Fatalf("golden file: %v (run with -update to regenerate)", err)
	}
	codec := wire.NatInfCodec{}

	for pos := 0; pos < len(data); pos += 7 {
		bad := append([]byte(nil), data...)
		bad[pos] ^= 0x41
		if _, err := checkpoint.Decode(codec, bad, "natinf"); err == nil {
			t.Fatalf("decode accepted a checkpoint with byte %d flipped", pos)
		}
		if _, _, err := checkpoint.Header(bad); err == nil {
			t.Fatalf("header accepted a checkpoint with byte %d flipped", pos)
		}
	}
	for cut := 0; cut < len(data); cut += 13 {
		if _, err := checkpoint.Decode(codec, data[:cut], "natinf"); err == nil {
			t.Fatalf("decode accepted a checkpoint truncated to %d bytes", cut)
		}
	}

	// Adversarial form: flip a byte AND recompute the checksum, so the
	// corruption reaches the structural decoder. It may decode (many
	// flips are benign route-value changes) but must never panic; a
	// recover here would hide exactly the crash the decoder exists to
	// prevent.
	for pos := 6; pos < len(data)-4; pos++ {
		bad := append([]byte(nil), data[:len(data)-4]...)
		bad[pos] ^= 0xFF
		bad = binary.BigEndian.AppendUint32(bad, crc32.ChecksumIEEE(bad))
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("decode panicked with byte %d rewritten: %v", pos, r)
				}
			}()
			_, _ = checkpoint.Decode(codec, bad, "natinf")
			_, _, _ = checkpoint.Header(bad)
		}()
	}
}

// TestCheckpointWrongFamily pins the codec-mismatch guard.
func TestCheckpointWrongFamily(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "natinf.ckpt"))
	if err != nil {
		t.Skip("golden file missing")
	}
	if _, err := checkpoint.Decode(wire.NatInfCodec{}, data, "gaorexford"); err == nil {
		t.Fatal("decode handed natinf bytes to a decoder expecting gaorexford")
	}
}

// TestDecodeRejectsNonIncrementalCheckpoint clears payload flag bit 0 —
// "the change-tracking matrices follow" — in a version-1 golden file and
// recomputes the checksum: a snapshot no engine can resume must come back
// from Decode as an error that says so, not as a misparsed payload.
func TestDecodeRejectsNonIncrementalCheckpoint(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "v1", "natinf.ckpt"))
	if err != nil {
		t.Fatalf("golden file: %v (run with -update to regenerate)", err)
	}
	// Walk the header to the flags byte: magic, version, family, meta.
	u16 := func(at int) int { return int(binary.BigEndian.Uint16(data[at:])) }
	at := 4 + 2
	at += 2 + u16(at)
	entries := u16(at)
	at += 2
	for i := 0; i < 2*entries; i++ {
		at += 2 + u16(at)
	}
	if data[at]&1 == 0 {
		t.Fatalf("golden file has flag bit 0 clear at offset %d", at)
	}
	bad := append([]byte(nil), data[:len(data)-4]...)
	bad[at] &^= 1
	bad = binary.BigEndian.AppendUint32(bad, crc32.ChecksumIEEE(bad))
	_, err = checkpoint.Decode(wire.NatInfCodec{}, bad, "natinf")
	if err == nil || !strings.Contains(err.Error(), "change tracking") {
		t.Fatalf("decode of a checkpoint with flag bit 0 clear: %v, want an error naming change tracking", err)
	}
	if _, _, err := checkpoint.Header(bad); err != nil {
		t.Fatalf("header of the same file: %v (the header is intact)", err)
	}
}
