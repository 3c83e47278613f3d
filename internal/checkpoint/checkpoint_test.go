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
// checkpoint holds (natinf for scenario topologies, spp for gadgets): a
// freshly encoded snapshot of the same deterministic run must still
// produce exactly the golden bytes, and the golden file must decode
// against an instance built from scratch and resume to the uninterrupted
// run.

// goldenCase checks one carrier: mk builds the instance, called
// separately for the encode and decode sides.
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

	family, meta, err := checkpoint.Header(want)
	if err != nil {
		t.Fatalf("header: %v", err)
	}
	if family != name || meta["horizon"] != fmt.Sprint(T) {
		t.Fatalf("header round trip: got family %q meta %v", family, meta)
	}
	alg2, adj2, codec2 := mk()
	f, err := checkpoint.Decode(codec2, want, name)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	eng2 := engine.New(alg2, adj2, engine.Config{})
	defer eng2.Close()
	resumed, err := eng2.Restore(f.Snap, s)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	wantFinal, gotFinal := full.Final(), resumed.Final()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			w, g := alg1.Format(wantFinal.Get(i, j)), alg2.Format(gotFinal.Get(i, j))
			if w != g {
				t.Fatalf("cell (%d,%d) after golden restore: got %s want %s", i, j, g, w)
			}
		}
	}
	if got, want := resumed.Stats(), full.Stats(); got != want {
		t.Fatalf("stats after golden restore: got %+v want %+v", got, want)
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

// TestStateCountIsCheckedBeforeAllocating hands Decode a 65-byte file
// with a valid checksum whose header claims one 2048×2048 state: the
// decoder must refuse it without first allocating the state.
func TestStateCountIsCheckedBeforeAllocating(t *testing.T) {
	const n = 2048
	data := []byte("DBFC")
	data = binary.BigEndian.AppendUint16(data, checkpoint.Version)
	data = binary.BigEndian.AppendUint16(data, uint16(len("natinf")))
	data = append(data, "natinf"...)
	data = binary.BigEndian.AppendUint16(data, 0) // no meta
	data = append(data, 0)                        // flags
	for _, v := range []uint32{0, n, 0, 0} {      // step, n, window, lastChange
		data = binary.BigEndian.AppendUint32(data, v)
	}
	data = append(data, make([]byte, 3*8)...) // stats
	data = binary.BigEndian.AppendUint32(data, 1)
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
