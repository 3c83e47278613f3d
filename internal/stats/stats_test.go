package stats

import (
	"strings"
	"testing"
)

func sampleOf(xs ...float64) *Sample {
	var s Sample
	for _, x := range xs {
		s.Add(x)
	}
	return &s
}

func TestMoments(t *testing.T) {
	s := sampleOf(1, 2, 3, 4)
	if s.Mean() != 2.5 {
		t.Errorf("mean = %v", s.Mean())
	}
	if s.Max() != 4 {
		t.Errorf("max = %v", s.Max())
	}
	if s.N() != 4 {
		t.Errorf("n = %d", s.N())
	}
}

func TestPercentiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.AddInt(int64(i))
	}
	if got := s.Percentile(50); got != 50 {
		t.Errorf("p50 = %v", got)
	}
	if got := s.Percentile(95); got != 95 {
		t.Errorf("p95 = %v", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := s.Percentile(100); got != 100 {
		t.Errorf("p100 = %v", got)
	}
}

func TestEmptySampleSafe(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Max() != 0 || s.Percentile(50) != 0 {
		t.Error("empty sample must be all zeros")
	}
}

func TestSummaryRendering(t *testing.T) {
	s := sampleOf(10, 20, 30)
	sum := s.Summary()
	for _, frag := range []string{"n=3", "mean=20.0", "p50=20", "max=30"} {
		if !strings.Contains(sum, frag) {
			t.Errorf("summary %q missing %q", sum, frag)
		}
	}
}
