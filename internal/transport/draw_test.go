package transport

import (
	"math/rand"
	"testing"
	"time"
)

// TestDrawOrder: a message's fate is drawn as loss (Float64), then
// duplication (Float64), then one Int63n per copy over the inclusive
// delay range, so the simulator (int64 ticks) and Memory (durations)
// given the same seed and faults see the same sequence.
func TestDrawOrder(t *testing.T) {
	const loss, dup = 0.2, 0.3
	ticks := rand.New(rand.NewSource(9))
	wall := rand.New(rand.NewSource(9))
	ref := rand.New(rand.NewSource(9))
	for m := 0; m < 500; m++ {
		var wantCopies int
		var want [2]int64
		if ref.Float64() >= loss {
			wantCopies = 1
			if ref.Float64() < dup {
				wantCopies = 2
			}
			for c := 0; c < wantCopies; c++ {
				want[c] = 1 + ref.Int63n(10)
			}
		}
		copies, delays := Draw(ticks, loss, dup, int64(1), int64(10))
		wcopies, wdelays := Draw(wall, loss, dup, time.Duration(1), time.Duration(10))
		if copies != wantCopies || delays != want {
			t.Fatalf("message %d: int64 draw (%d, %v), want (%d, %v)", m, copies, delays, wantCopies, want)
		}
		if wcopies != copies || int64(wdelays[0]) != delays[0] || int64(wdelays[1]) != delays[1] {
			t.Fatalf("message %d: Duration draw (%d, %v) differs from int64 draw (%d, %v)", m, wcopies, wdelays, copies, delays)
		}
	}
}

// TestDrawDelayBounds: both ends of [MinDelay, MaxDelay] are reachable
// and nothing outside is; MinDelay == MaxDelay still takes its one
// Int63n per copy, and a MaxDelay below MinDelay means MinDelay.
func TestDrawDelayBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seen := map[int64]bool{}
	for m := 0; m < 2000; m++ {
		_, d := Draw(rng, 0, 0, int64(3), int64(5))
		if d[0] < 3 || d[0] > 5 {
			t.Fatalf("delay %d outside [3, 5]", d[0])
		}
		seen[d[0]] = true
	}
	if !seen[3] || !seen[5] {
		t.Fatalf("delays seen %v: an end of [3, 5] never drawn", seen)
	}
	for _, hi := range []time.Duration{7, 2} {
		rng, ref := rand.New(rand.NewSource(4)), rand.New(rand.NewSource(4))
		copies, d := Draw(rng, 0, 1, time.Duration(7), hi)
		ref.Float64()
		ref.Float64()
		ref.Int63n(1)
		ref.Int63n(1)
		if copies != 2 || d != [2]time.Duration{7, 7} || rng.Int63() != ref.Int63() {
			t.Errorf("MinDelay 7, MaxDelay %d: (%d, %v), or not four draws", hi, copies, d)
		}
	}
}

func TestMemoryMaxDelay(t *testing.T) {
	for _, c := range []struct {
		f    Faults
		want time.Duration
	}{
		{Faults{}, 0},
		{Faults{MinDelay: time.Millisecond, MaxDelay: 9 * time.Millisecond}, 9 * time.Millisecond},
		{Faults{MinDelay: 4 * time.Millisecond}, 4 * time.Millisecond},
	} {
		tr := NewMemory(1, 1, c.f)
		if got := tr.MaxDelay(); got != c.want {
			t.Errorf("%+v: MaxDelay %v, want %v", c.f, got, c.want)
		}
		tr.Close()
	}
}
