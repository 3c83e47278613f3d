package dist

import (
	"testing"
	"time"
)

// TestSettleWindowOutlastsMaxDelay: the settle window is eight
// re-advertisement periods, or the transport's longest delay plus one
// period when that is longer.
func TestSettleWindowOutlastsMaxDelay(t *testing.T) {
	for _, c := range []struct{ maxDelay, want time.Duration }{
		{0, 160 * time.Millisecond},
		{2 * time.Millisecond, 160 * time.Millisecond},
		{140 * time.Millisecond, 160 * time.Millisecond},
		{160 * time.Millisecond, 180 * time.Millisecond},
		{time.Second, time.Second + readvertiseEvery},
	} {
		if got := settleWindow(c.maxDelay); got != c.want {
			t.Errorf("settleWindow(%v) = %v, want %v", c.maxDelay, got, c.want)
		}
	}
}
