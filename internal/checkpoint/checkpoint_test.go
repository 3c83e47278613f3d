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
	"runtime"
	"strings"
	"testing"

	"repro/internal/algebras"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gadgets"
	"repro/internal/matrix"
	"repro/internal/schedule"
	"repro/internal/wire"
)

var update = flag.Bool("update", false, "rewrite golden checkpoint files")

// The format is pinned by committed golden files, one per carrier family a
// checkpoint holds (natinf for scenario topologies, spp for gadgets): the
// freshly encoded state of the same deterministic run must still produce
// exactly the golden bytes, and the golden file must decode against an
// instance built from scratch to the witness a replay of that run reaches.

// goldenCase checks one carrier: mk builds the instance, called
// separately for the encode and decode sides.
func goldenCase[R any](t *testing.T, name string, mk func() (core.Algebra[R], *matrix.Adjacency[R], wire.Codec[R])) {
	t.Helper()
	const T, at = 40, 20
	text := fmt.Sprintf("%s run, horizon %d", name, T)
	_, adj, _ := mk()
	s := schedule.Random(rand.New(rand.NewSource(11)), adj.N, T, schedule.Options{MaxGap: 5, MaxStaleness: 4})
	replay := func() (core.Algebra[R], *matrix.State[R], wire.Codec[R]) {
		alg, adj, codec := mk()
		eng := engine.New(alg, adj, engine.Config{})
		defer eng.Close()
		st, err := eng.Start(matrix.Identity(alg, adj.N), s, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if st.Step(at) {
			t.Fatalf("the run ended before step %d", at)
		}
		return alg, st.State(), codec
	}
	_, witness, codec1 := replay()
	data, err := checkpoint.Encode(codec1, &checkpoint.File[R]{Family: name, Text: text, Step: at, State: witness})
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
		t.Fatalf("encoding of the deterministic %s state no longer matches the golden file (%d vs %d bytes); if the format changed intentionally, bump checkpoint.Version and regenerate with -update",
			name, len(data), len(want))
	}

	family, gotText, err := checkpoint.Header(want)
	if err != nil {
		t.Fatalf("header: %v", err)
	}
	if family != name || gotText != text {
		t.Fatalf("header round trip: got family %q text %q", family, gotText)
	}
	alg2, replayed, codec2 := replay()
	f, err := checkpoint.Decode(codec2, want, name)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if f.Step != at || f.Text != text || !f.State.Equal(alg2, replayed) {
		t.Fatalf("decoded step %d text %q, or a witness a fresh replay to step %d does not reach", f.Step, f.Text, at)
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
	t.Run("spp", func(t *testing.T) {
		goldenCase(t, "spp", func() (core.Algebra[gadgets.Route], *matrix.Adjacency[gadgets.Route], wire.Codec[gadgets.Route]) {
			spp := gadgets.Disagree().Clone()
			alg := gadgets.Algebra{S: spp}
			return alg, alg.Adjacency(), wire.SPPCodec{}
		})
	})
}

// TestCheckpointVersion2IsRefused: a file of the previous format, which
// held the engine's evaluation state, is refused with a clean error.
func TestCheckpointVersion2IsRefused(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "v2-natinf.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkpoint.Decode(wire.NatInfCodec{}, data, "natinf"); err == nil || !strings.Contains(err.Error(), "version 2") {
		t.Fatalf("decode of a version 2 file: %v, want a version error", err)
	}
	if _, _, err := checkpoint.Header(data); err == nil {
		t.Fatal("header accepted a version 2 file")
	}
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

// TestStateCountIsCheckedBeforeAllocating hands Decode a 28-byte file
// with a valid checksum whose header claims a 2048×2048 witness: the
// decoder must refuse it without first allocating the state.
func TestStateCountIsCheckedBeforeAllocating(t *testing.T) {
	const n = 2048
	data := []byte("DBFC")
	data = binary.BigEndian.AppendUint16(data, checkpoint.Version)
	data = binary.BigEndian.AppendUint16(data, uint16(len("natinf")))
	data = append(data, "natinf"...)
	data = binary.BigEndian.AppendUint16(data, 0) // no text
	for _, v := range []uint32{0, n} {            // step, n
		data = binary.BigEndian.AppendUint32(data, v)
	}
	data = binary.BigEndian.AppendUint32(data, crc32.ChecksumIEEE(data))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := checkpoint.Decode(wire.NatInfCodec{}, data, "natinf")
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("decode accepted a %d-byte file claiming a %d×%d state", len(data), n, n)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("decode of a %d-byte file allocated %d bytes", len(data), d)
	}
}
