package wire

import (
	"testing"

	"repro/internal/algebras"
	"repro/internal/paths"
	"repro/internal/policy"
)

func BenchmarkAdvertEncode(b *testing.B) {
	rows := make([][]byte, 16)
	for i := range rows {
		rows[i] = make([]byte, 24)
	}
	a := Advert{From: 3, Seq: 9, Rows: rows}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = EncodeAdvert(a)
	}
}

func BenchmarkAdvertDecode(b *testing.B) {
	rows := make([][]byte, 16)
	for i := range rows {
		rows[i] = make([]byte, 24)
	}
	enc := EncodeAdvert(Advert{From: 3, Seq: 9, Rows: rows})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeAdvert(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPolicyRouteRoundTrip(b *testing.B) {
	c := PolicyCodec{}
	r := policy.Valid(7, policy.NewCommunitySet(1, 5, 9), paths.FromNodes(4, 3, 2, 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := c.AppendEncode(nil, r)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNatInfRowRoundTrip(b *testing.B) {
	c := NatInfCodec{}
	row := make([]algebras.NatInf, 32)
	for i := range row {
		row[i] = algebras.NatInf(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range row {
			enc, err := c.AppendEncode(nil, r)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := c.Decode(enc); err != nil {
				b.Fatal(err)
			}
		}
	}
}
