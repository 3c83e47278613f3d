package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/algebras"
	"repro/internal/gadgets"
	"repro/internal/gaorexford"
	"repro/internal/pathalg"
	"repro/internal/paths"
	"repro/internal/policy"
)

func TestAdvertRoundTrip(t *testing.T) {
	a := Advert{From: 3, Seq: 77, Rows: [][]byte{{1, 2, 3}, {}, {9}}}
	got, err := DecodeAdvert(EncodeAdvert(a))
	if err != nil {
		t.Fatal(err)
	}
	if got.From != 3 || got.Seq != 77 || len(got.Rows) != 3 {
		t.Fatalf("round trip: %+v", got)
	}
	if string(got.Rows[0]) != string([]byte{1, 2, 3}) || len(got.Rows[1]) != 0 {
		t.Error("row contents mangled")
	}
}

func TestAdvertTruncation(t *testing.T) {
	a := Advert{From: 1, Seq: 2, Rows: [][]byte{{1, 2, 3, 4}}}
	enc := EncodeAdvert(a)
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeAdvert(enc[:cut]); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
}

func TestNatInfCodec(t *testing.T) {
	c := NatInfCodec{}
	for _, v := range []algebras.NatInf{0, 1, 42, algebras.Inf} {
		b, err := c.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Decode(b)
		if err != nil || got != v {
			t.Errorf("round trip %v: got %v, err %v", v, got, err)
		}
		// Appender: the same bytes, after whatever dst already held.
		if app, err := c.AppendEncode([]byte("pre"), v); err != nil || !bytes.Equal(app, append([]byte("pre"), b...)) {
			t.Errorf("AppendEncode(%v) = %x, %v; want prefix + %x", v, app, err, b)
		}
	}
	if _, err := c.Decode([]byte{1, 2}); err == nil {
		t.Error("short buffer must fail")
	}
}

func TestFloat64Codec(t *testing.T) {
	c := Float64Codec{}
	for _, v := range []float64{0, 0.25, 1, 0.6180339887} {
		b, _ := c.Encode(v)
		got, err := c.Decode(b)
		if err != nil || got != v {
			t.Errorf("round trip %v: got %v", v, got)
		}
	}
}

func TestPathRoundTrip(t *testing.T) {
	for _, p := range []paths.Path{
		paths.Invalid,
		paths.Empty,
		paths.FromNodes(1, 0),
		paths.FromNodes(5, 3, 2, 0),
	} {
		enc := EncodePath(p)
		got, rest, err := DecodePath(enc)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if len(rest) != 0 {
			t.Errorf("%s: %d trailing bytes", p, len(rest))
		}
		if !got.Equal(p) {
			t.Errorf("round trip %s: got %s", p, got)
		}
	}
}

func TestDecodePathRejectsNonSimple(t *testing.T) {
	// Hand-craft an arc sequence with a loop: (1,2),(2,1).
	raw := []byte{0x00, 0x00, 0x02, 0x00, 1, 0x00, 2, 0x00, 2, 0x00, 1}
	if _, _, err := DecodePath(raw); err == nil {
		t.Error("looping arc sequence must be rejected")
	}
}

func TestPolicyCodec(t *testing.T) {
	c := PolicyCodec{}
	routes := []policy.Route{
		policy.InvalidRoute,
		policy.TrivialRoute,
		policy.Valid(7, policy.NewCommunitySet(1, 5), paths.FromNodes(2, 1, 0)),
	}
	for _, r := range routes {
		b, err := c.Encode(r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Decode(b)
		if err != nil {
			t.Fatalf("%s: %v", r, err)
		}
		if got.Compare(r) != 0 {
			t.Errorf("round trip %s: got %s", r, got)
		}
	}
	if _, err := c.Decode(nil); err == nil {
		t.Error("empty buffer must fail")
	}
	if _, err := c.Decode([]byte{0x00, 1, 2}); err == nil {
		t.Error("truncated valid route must fail")
	}
}

func TestGaoRexfordCodec(t *testing.T) {
	c := GaoRexfordCodec{}
	for _, r := range []gaorexford.Route{
		gaorexford.Trivial,
		gaorexford.Invalid,
		{Class: gaorexford.FromPeer, Hops: 12},
	} {
		b, _ := c.Encode(r)
		got, err := c.Decode(b)
		if err != nil || got != r {
			t.Errorf("round trip %v: got %v, err %v", r, got, err)
		}
	}
}

func TestTrackedCodec(t *testing.T) {
	c := TrackedCodec[algebras.NatInf]{Base: NatInfCodec{}}
	alg := pathalg.New[algebras.NatInf](algebras.ShortestPaths{})
	routes := []pathalg.Route[algebras.NatInf]{
		alg.Trivial(),
		alg.Invalid(),
		{Base: 4, Path: paths.FromNodes(3, 1, 0)},
	}
	for _, r := range routes {
		b, err := c.Encode(r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		if !alg.Equal(got, r) {
			t.Errorf("round trip %s: got %s", alg.Format(r), alg.Format(got))
		}
	}
}

func TestRowRoundTrip(t *testing.T) {
	c := NatInfCodec{}
	row := []algebras.NatInf{0, 3, algebras.Inf, 9}
	enc, err := EncodeRow[algebras.NatInf](c, row)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRow[algebras.NatInf](c, enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range row {
		if got[i] != row[i] {
			t.Errorf("row[%d] = %v, want %v", i, got[i], row[i])
		}
	}
}

func TestFuzzDecodeNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	codecs := func(b []byte) {
		_, _ = DecodeAdvert(b)
		_, _, _ = DecodePath(b)
		_, _ = (PolicyCodec{}).Decode(b)
		_, _ = (NatInfCodec{}).Decode(b)
		_, _ = (GaoRexfordCodec{}).Decode(b)
		_, _ = (TrackedCodec[algebras.NatInf]{Base: NatInfCodec{}}).Decode(b)
		_, _ = (SPPCodec{}).Decode(b)
		_, _ = (PairCodec[algebras.NatInf, algebras.NatInf]{First: NatInfCodec{}, Second: NatInfCodec{}}).Decode(b)
	}
	for trial := 0; trial < 3000; trial++ {
		b := make([]byte, rng.Intn(64))
		rng.Read(b)
		codecs(b) // must not panic
	}
}

func TestSPPCodec(t *testing.T) {
	c := SPPCodec{}
	routes := []gadgets.Route{
		{Rank: 0, Path: paths.Empty},
		{Rank: gadgets.InvalidRank, Path: paths.Invalid},
		{Rank: 2, Path: paths.FromNodes(1, 2, 0)},
	}
	for _, r := range routes {
		b, err := c.Encode(r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		if got.Rank != r.Rank || !got.Path.Equal(r.Path) {
			t.Errorf("round trip %v: got %v", r, got)
		}
	}
	if _, err := c.Decode([]byte{1}); err == nil {
		t.Error("short buffer must fail")
	}
}

// truncations checks that every strict prefix of r's encoding fails with
// ErrTruncated and that the full encoding round-trips.
func truncations[R any](t *testing.T, name string, c Codec[R], r R, equal func(a, b R) bool) {
	t.Helper()
	b, err := c.Encode(r)
	if err != nil {
		t.Fatalf("%s: encode: %v", name, err)
	}
	for k := 0; k < len(b); k++ {
		if _, err := c.Decode(b[:k]); !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: %d-byte prefix of %d: got %v, want ErrTruncated", name, k, len(b), err)
		}
	}
	got, err := c.Decode(b)
	if err != nil || !equal(got, r) {
		t.Errorf("%s: round trip gave %v, %v", name, got, err)
	}
}

func TestDecodersRejectEveryTruncation(t *testing.T) {
	path := paths.FromNodes(3, 2, 1, 0)
	truncations[policy.Route](t, "policy", PolicyCodec{},
		policy.Valid(7, policy.NewCommunitySet(1, 5), path),
		func(a, b policy.Route) bool { return a.Compare(b) == 0 })
	truncations[gadgets.Route](t, "spp", SPPCodec{},
		gadgets.Route{Rank: 2, Path: path},
		func(a, b gadgets.Route) bool { return a.Rank == b.Rank && a.Path.Equal(b.Path) })
	tracked := pathalg.New[algebras.NatInf](algebras.HopCount{Limit: 15})
	truncations[pathalg.Route[algebras.NatInf]](t, "tracked", TrackedCodec[algebras.NatInf]{Base: NatInfCodec{}},
		pathalg.Route[algebras.NatInf]{Base: 4, Path: path}, tracked.Equal)
	truncations[algebras.Pair[algebras.NatInf, algebras.NatInf]](t, "pair",
		PairCodec[algebras.NatInf, algebras.NatInf]{First: NatInfCodec{}, Second: NatInfCodec{}},
		algebras.Pair[algebras.NatInf, algebras.NatInf]{First: 3, Second: 7},
		func(a, b algebras.Pair[algebras.NatInf, algebras.NatInf]) bool { return a == b })
}
