package backoff

import (
	"math"
	"testing"
	"time"
)

func TestDelay(t *testing.T) {
	const ms = time.Millisecond
	low := func() float64 { return 0 }
	high := func() float64 { return math.Nextafter(1, 0) }
	for _, tc := range []struct {
		name      string
		n         int
		base, max time.Duration
		jitter    func() float64
		want      time.Duration
	}{
		{"first retry, low jitter", 1, 10 * ms, 250 * ms, low, 5 * ms},
		{"first retry, high jitter", 1, 10 * ms, 250 * ms, high, 10*ms - 1},
		{"doubling", 3, 10 * ms, 250 * ms, low, 20 * ms},
		{"cap", 6, 10 * ms, 250 * ms, low, 125 * ms},
		{"cap, high jitter", 6, 10 * ms, 250 * ms, high, 250*ms - 1},
		{"large n", 1 << 20, 10 * ms, 250 * ms, low, 125 * ms},
		{"large n near the duration limit", math.MaxInt, 3, math.MaxInt64, low, math.MaxInt64 / 2},
		{"base above cap", 1, time.Second, 250 * ms, low, 125 * ms},
		{"zero base", 2, 0, 250 * ms, low, 125 * ms},
		{"middle jitter", 2, 10 * ms, 250 * ms, func() float64 { return 0.5 }, 15 * ms},
	} {
		if got := Delay(tc.n, tc.base, tc.max, tc.jitter); got != tc.want {
			t.Errorf("%s: Delay(%d, %v, %v) = %v, want %v", tc.name, tc.n, tc.base, tc.max, got, tc.want)
		}
	}
}
