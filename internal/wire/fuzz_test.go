package wire

import (
	"testing"

	"repro/internal/gadgets"
	"repro/internal/paths"
	"repro/internal/policy"
)

// FuzzDecodeAdvert feeds arbitrary bytes through the frame decoder; any
// panic or over-allocation is a bug (routers must survive hostile peers).
func FuzzDecodeAdvert(f *testing.F) {
	f.Add(EncodeAdvert(Advert{From: 1, Seq: 2, Rows: [][]byte{{1, 2}, {}}}))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 9, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		adv, err := DecodeAdvert(data)
		if err != nil {
			return
		}
		// A decoded advert must re-encode and decode to the same value.
		again, err := DecodeAdvert(EncodeAdvert(adv))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.From != adv.From || again.Seq != adv.Seq || len(again.Rows) != len(adv.Rows) {
			t.Fatal("advert round trip mismatch")
		}
	})
}

// FuzzDecodePolicyRoute checks the policy route codec against arbitrary
// input: no panics, and anything that decodes must round-trip.
func FuzzDecodePolicyRoute(f *testing.F) {
	c := PolicyCodec{}
	seed, _ := c.AppendEncode(nil, policy.Valid(3, policy.NewCommunitySet(1), paths.FromNodes(2, 0)))
	f.Add(seed)
	f.Add([]byte{0xFF})
	f.Add([]byte{0x00, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := c.Decode(data)
		if err != nil {
			return
		}
		enc, err := c.AppendEncode(nil, r)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		r2, err := c.Decode(enc)
		if err != nil || r2.Compare(r) != 0 {
			t.Fatalf("policy route round trip mismatch: %s vs %s (%v)", r, r2, err)
		}
	})
}

// FuzzDecodeSPPRoute checks the SPP route codec likewise.
func FuzzDecodeSPPRoute(f *testing.F) {
	c := SPPCodec{}
	seed, _ := c.AppendEncode(nil, gadgets.Route{Rank: 2, Path: paths.FromNodes(1, 2, 0)})
	f.Add(seed)
	f.Add(append([]byte{0, 0, 0, 1}, loopingArcs...))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := c.Decode(data)
		if err != nil {
			return
		}
		enc, err := c.AppendEncode(nil, r)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		r2, err := c.Decode(enc)
		if err != nil || r2.Rank != r.Rank || !r2.Path.Equal(r.Path) {
			t.Fatalf("SPP route round trip mismatch: %v vs %v (%v)", r, r2, err)
		}
	})
}
