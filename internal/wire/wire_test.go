package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/algebras"
	"repro/internal/gadgets"
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

// TestAdvertRowCountIsCheckedBeforeAllocating sends a 16-byte frame that
// claims 2²⁰ rows: the decoder must refuse it as truncated without first
// sizing a row slice by the claim.
func TestAdvertRowCountIsCheckedBeforeAllocating(t *testing.T) {
	frame := binary.BigEndian.AppendUint32(EncodeAdvert(Advert{From: 1, Seq: 2})[:12], 1<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeAdvert(frame)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("decode of a %d-byte frame claiming 2²⁰ rows: %v, want ErrTruncated", len(frame), err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("decode of a %d-byte frame allocated %d bytes", len(frame), d)
	}
}

func TestNatInfCodec(t *testing.T) {
	c := NatInfCodec{}
	for _, v := range []algebras.NatInf{0, 1, 42, algebras.Inf} {
		b, err := c.AppendEncode(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Decode(b)
		if err != nil || got != v {
			t.Errorf("round trip %v: got %v, err %v", v, got, err)
		}
	}
	if _, err := c.Decode([]byte{1, 2}); err == nil {
		t.Error("short buffer must fail")
	}
}

func TestPathRoundTrip(t *testing.T) {
	for _, p := range []paths.Path{
		paths.Invalid,
		paths.Empty,
		paths.FromNodes(1, 0),
		paths.FromNodes(5, 3, 2, 0),
	} {
		cur := NewCursor(appendPath(nil, p), ErrTruncated)
		got, err := readPath(cur)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if cur.Len() != 0 {
			t.Errorf("%s: %d trailing bytes", p, cur.Len())
		}
		if !got.Equal(p) {
			t.Errorf("round trip %s: got %s", p, got)
		}
	}
}

// loopingArcs is an arc sequence with a loop, (1,2),(2,1), in the
// appendPath layout.
var loopingArcs = []byte{0x00, 0x00, 0x02, 0x00, 1, 0x00, 2, 0x00, 2, 0x00, 1}

func TestReadPathRejectsNonSimple(t *testing.T) {
	if _, err := readPath(NewCursor(loopingArcs, ErrTruncated)); err == nil {
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
		b, err := c.AppendEncode(nil, r)
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

func TestFuzzDecodeNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	codecs := func(b []byte) {
		_, _ = DecodeAdvert(b)
		_, _ = readPath(NewCursor(b, ErrTruncated))
		_, _ = (PolicyCodec{}).Decode(b)
		_, _ = (NatInfCodec{}).Decode(b)
		_, _ = (SPPCodec{}).Decode(b)
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
		b, err := c.AppendEncode(nil, r)
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
// ErrTruncated, that the full encoding round-trips, and that appending
// after bytes dst already holds leaves them and adds the same encoding.
func truncations[R any](t *testing.T, name string, c Codec[R], r R, equal func(a, b R) bool) {
	t.Helper()
	b, err := c.AppendEncode(nil, r)
	if err != nil {
		t.Fatalf("%s: encode: %v", name, err)
	}
	if app, err := c.AppendEncode([]byte("pre"), r); err != nil || !bytes.Equal(app, append([]byte("pre"), b...)) {
		t.Errorf("%s: AppendEncode after a prefix = %x, %v; want prefix + %x", name, app, err, b)
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
	truncations[algebras.NatInf](t, "natinf", NatInfCodec{}, 4,
		func(a, b algebras.NatInf) bool { return a == b })
}

// TestCodecBytesPinned pins each codec's layout byte for byte: live
// adverts and checkpoints written by one build are read by another.
func TestCodecBytesPinned(t *testing.T) {
	hexOf := func(b []byte, err error) string {
		if err != nil {
			t.Fatal(err)
		}
		return hex.EncodeToString(b)
	}
	for _, tc := range []struct{ got, want string }{
		{hexOf(PolicyCodec{}.AppendEncode(nil, policy.Valid(7, policy.NewCommunitySet(1, 5), paths.FromNodes(2, 1, 0)))),
			"00000000070000000000000022000000020002000100010000"},
		{hexOf(PolicyCodec{}.AppendEncode(nil, policy.InvalidRoute)), "ff"},
		{hexOf(SPPCodec{}.AppendEncode(nil, gadgets.Route{Rank: 2, Path: paths.FromNodes(1, 2, 0)})),
			"000000020000020001000200020000"},
		{hexOf(NatInfCodec{}.AppendEncode(nil, 42)), "000000000000002a"},
	} {
		if tc.got != tc.want {
			t.Errorf("encoding moved: got %s, want %s", tc.got, tc.want)
		}
	}
}
