// Package backoff is the one retry-delay policy of the service, the
// fleet coordinator and the durable job queue: capped exponential
// backoff with jitter.
package backoff

import "time"

// Delay returns the wait before retry n (n >= 1): base·2^(n−1) capped
// at max, then jittered into [d/2, d) by jitter, a source of values in
// [0, 1). The doubling stops at the cap, so no n overflows; a base
// that is not positive selects max.
func Delay(n int, base, max time.Duration, jitter func() float64) time.Duration {
	d := max
	if base > 0 && base < max {
		d = base
		for i := 1; i < n && d < max; i++ {
			if d > max/2 {
				d = max
				break
			}
			d *= 2
		}
	}
	return d/2 + time.Duration(jitter()*float64(d/2))
}
